"""Oracle substrate: simulated deep models, UDFs, cost model.

The accurate-but-slow "oracle" in the paper is a deep CNN (YOLOv3 for
counting, a monocular depth estimator for tailgating, a sentimentalizer
for thumbnails). Here every oracle reveals the simulator's ground truth
while charging realistic per-frame latency to a :class:`CostModel`
ledger, so invocation-count economics — the thing the paper's speedups
measure — are preserved without a GPU.
"""

from .base import Oracle, ScoringFunction
from .cost import CostModel, DEFAULT_UNIT_COSTS, merge_cost_models
from .detector import (
    DetectorErrorModel,
    SimulatedObjectDetector,
    counting_udf,
)
from .depth import SimulatedDepthEstimator, tailgating_udf
from .sentiment import SimulatedSentimentalizer, sentiment_udf

__all__ = [
    "Oracle",
    "ScoringFunction",
    "CostModel",
    "DEFAULT_UNIT_COSTS",
    "merge_cost_models",
    "DetectorErrorModel",
    "SimulatedObjectDetector",
    "counting_udf",
    "SimulatedDepthEstimator",
    "tailgating_udf",
    "SimulatedSentimentalizer",
    "sentiment_udf",
]

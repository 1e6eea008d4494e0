"""Video substrate: synthetic videos, dataset registry, difference detection.

The paper evaluates on hours-long real videos decoded with Decord. This
environment has neither the videos nor a decoder, so the substrate
provides deterministic, seeded *scene simulators* whose rendered pixels
are noisy-but-predictive evidence of a ground-truth signal (object
count, lead-vehicle distance, happiness). See DESIGN.md §1 for why the
substitution preserves the behaviour Everest's algorithms depend on.

Nothing here charges for decoding: the ledger charges ``decode`` where
frames are paid for — a Phase-1 scan, and each batch Phase 2 confirms
(the executor's clean function, DESIGN.md §3).
"""

from .frame import BoundingBox, Frame
from .synthetic import (
    DashcamVideo,
    ObjectCountProcess,
    SentimentVideo,
    SyntheticVideo,
    TrafficVideo,
)
from .datasets import DATASETS, DatasetSpec, build_dataset, dataset_table
from .visual_road import visual_road_video, visual_road_suite
from .diff import DifferenceDetector, DiffResult
from .streaming import Segment, StreamingVideo
from .views import ConcatVideo

__all__ = [
    "BoundingBox",
    "Frame",
    "ObjectCountProcess",
    "SyntheticVideo",
    "TrafficVideo",
    "DashcamVideo",
    "SentimentVideo",
    "DATASETS",
    "DatasetSpec",
    "build_dataset",
    "dataset_table",
    "visual_road_video",
    "visual_road_suite",
    "DifferenceDetector",
    "DiffResult",
    "Segment",
    "StreamingVideo",
    "ConcatVideo",
]

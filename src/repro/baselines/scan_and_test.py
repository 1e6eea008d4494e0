"""The naive scan-and-test baseline (exact, slow).

Invokes the oracle on every frame and sorts — the paper's reference
point for all speedups. Its answer *is* the exact result by
definition.
"""

from __future__ import annotations

import numpy as np

from ..oracle.base import ScoringFunction, exact_scores
from ..oracle.cost import CostModel
from ..video.synthetic import SyntheticVideo
from .base import BaselineResult


def scan_and_test(
    video: SyntheticVideo,
    scoring: ScoringFunction,
    k: int,
    *,
    unit_costs=None,
) -> BaselineResult:
    """Oracle-score every frame, return the exact Top-K."""
    cost_model = CostModel(unit_costs)
    cost_model.charge("decode", len(video))
    cost_model.charge(scoring.cost_key, len(video))
    # The ledger charges what scoring every frame through an Oracle
    # would; the exact-scores fast path skips building a Frame each.
    scores = exact_scores(scoring, video)
    order = np.lexsort((np.arange(scores.size), -scores))
    top = order[:k]
    return BaselineResult(
        method="scan-and-test",
        video_name=video.name,
        k=k,
        answer_ids=[int(i) for i in top],
        answer_scores=[float(scores[i]) for i in top],
        simulated_seconds=cost_model.total_seconds(),
        extras={"oracle_calls": float(len(video))},
    )

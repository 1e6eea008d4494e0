"""CMDN-only baseline: Phase 1 without the cleaning loop.

Ranks frames by the mean of the proxy's predicted score distribution
and returns the Top-K directly — no oracle verification, no guarantee.
The paper uses this to show the specialized proxy is a good *first
phase* but not a system by itself.
"""

from __future__ import annotations

import numpy as np

from ..config import EverestConfig
from ..oracle.base import ScoringFunction
from ..oracle.cost import CostModel
from ..video.synthetic import SyntheticVideo
from ..core.phase1 import run_phase1
from .base import BaselineResult


def cmdn_only_topk(
    video: SyntheticVideo,
    scoring: ScoringFunction,
    k: int,
    *,
    config: EverestConfig = EverestConfig(),
    unit_costs=None,
) -> BaselineResult:
    """Run Phase 1 only; Top-K of the proxy's expected scores."""
    costs = CostModel(unit_costs).unit_costs
    # Labelling charges the oracle's own latency.
    costs["oracle_label"] = costs.get(scoring.cost_key, 0.0)
    entry = run_phase1(video, scoring, costs, config)
    relation = entry.relation
    expected = relation.expected_scores()
    order = np.lexsort((relation.ids, -expected))
    top = order[:k]
    return BaselineResult(
        method="cmdn-only",
        video_name=video.name,
        k=k,
        answer_ids=[int(relation.ids[i]) for i in top],
        answer_scores=[float(expected[i]) for i in top],
        simulated_seconds=entry.cost_model.total_seconds(),
        extras={
            "holdout_nll": entry.grid_result.best_history.holdout_nll,
            "num_retained": float(entry.diff_result.num_retained),
        },
    )

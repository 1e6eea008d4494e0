"""CMDN-only baseline: Phase 1 without the cleaning loop.

Ranks frames by the mean of the proxy's predicted score distribution
and returns the Top-K directly — no oracle verification, no guarantee.
The paper uses this to show the specialized proxy is a good *first
phase* but not a system by itself.
"""

from __future__ import annotations

import numpy as np

from ..config import EverestConfig
from ..oracle.base import Oracle, ScoringFunction
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
    cost_model = CostModel(unit_costs)
    oracle = Oracle(scoring, cost_key="oracle_label")
    # Labelling charges the oracle's own latency.
    cost_model.unit_costs["oracle_label"] = cost_model.unit_costs.get(
        scoring.cost_key, 0.0)
    phase1 = run_phase1(
        video,
        oracle,
        config=config.phase1,
        diff_config=config.diff,
        cost_model=cost_model,
        seed=config.seed,
    )
    relation = phase1.relation
    expected = relation.expected_scores()
    order = np.lexsort((relation.ids, -expected))
    top = order[:k]
    return BaselineResult(
        method="cmdn-only",
        video_name=video.name,
        k=k,
        answer_ids=[int(relation.ids[i]) for i in top],
        answer_scores=[float(expected[i]) for i in top],
        simulated_seconds=cost_model.total_seconds(),
        extras={
            "holdout_nll": phase1.grid_result.best_history.holdout_nll,
            "num_retained": float(phase1.diff_result.num_retained),
        },
    )

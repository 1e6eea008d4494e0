"""Figure 5: impact of K (Top-K queries for K in {5,10,25,50,75,100}).

Phase 1 is cached per video (D0 does not depend on K), so the sweep
re-runs only Phase 2 — each report still accounts full Phase 1 cost.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .runner import (
    ExperimentRecord,
    ExperimentScale,
    SweepPoint,
    counting_sweep,
    experiment_main,
    format_table,
)

#: The paper's K sweep.
PAPER_KS: Sequence[int] = (5, 10, 25, 50, 75, 100)


def run(
    scale: ExperimentScale = ExperimentScale.paper(),
    *,
    ks: Sequence[int] = PAPER_KS,
    thres: float = 0.9,
    videos=None,
    workers: Optional[int] = None,
) -> List[ExperimentRecord]:
    return counting_sweep(
        scale,
        lambda session: [SweepPoint(session, k=k, thres=thres) for k in ks],
        videos=videos, workers=workers)


def render(records: List[ExperimentRecord]) -> str:
    rows = [
        [
            r.video, f"K={r.k}", f"{r.speedup:.1f}x",
            f"{r.metrics.precision:.3f}",
            f"{r.metrics.rank_distance:.5f}",
            f"{r.metrics.score_error:.4f}",
        ]
        for r in records
    ]
    return format_table(
        ("video", "K", "speedup", "precision", "rank-dist", "score-err"),
        rows,
        title="Figure 5: impact of K (thres=0.9)",
    )


main = experiment_main(run, render)


if __name__ == "__main__":  # pragma: no cover
    main()

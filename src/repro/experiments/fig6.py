"""Figure 6: impact of the confidence threshold (thres sweep).

Top-50 queries with thres in {0.5, 0.75, 0.9, 0.95, 0.99}. The paper's
finding: thres barely matters above 0.5 because confidence improves
exponentially with the number of cleaned frames — most iterations are
spent reaching 0.5, very few going from 0.5 to 0.99.
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

#: The paper's threshold sweep.
PAPER_THRESHOLDS: Sequence[float] = (0.5, 0.75, 0.9, 0.95, 0.99)


def run(
    scale: ExperimentScale = ExperimentScale.paper(),
    *,
    thresholds: Sequence[float] = PAPER_THRESHOLDS,
    k: int = 50,
    videos=None,
    workers: Optional[int] = None,
) -> List[ExperimentRecord]:
    return counting_sweep(
        scale,
        lambda session: [
            SweepPoint(session, k=k, thres=thres) for thres in thresholds],
        videos=videos, workers=workers)


def render(records: List[ExperimentRecord]) -> str:
    rows = [
        [
            r.video, f"thres={r.thres}", f"{r.speedup:.1f}x",
            f"{r.metrics.precision:.3f}",
            f"{r.metrics.rank_distance:.5f}",
            f"{r.metrics.score_error:.4f}",
            f"{int(r.extras.get('iterations', 0))}",
        ]
        for r in records
    ]
    return format_table(
        ("video", "thres", "speedup", "precision", "rank-dist",
         "score-err", "iterations"),
        rows,
        title="Figure 6: impact of the confidence threshold (Top-50)",
    )


main = experiment_main(run, render)


if __name__ == "__main__":  # pragma: no cover
    main()

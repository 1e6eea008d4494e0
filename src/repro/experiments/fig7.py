"""Figure 7: Top-K window queries with varying window sizes.

Top-50 windows with window sizes {1, 30, 60, 150, 300} frames (1 =
frame-based query), thres = 0.9, sampling 10% of a window's frames at
confirmation time. The paper's findings: quality stays high; speedup
drops slightly as windows grow (fewer windows to choose among, more
frames confirmed per cleaning).
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

#: The paper's window-size sweep (frames; 1 = no window).
PAPER_WINDOW_SIZES: Sequence[int] = (1, 30, 60, 150, 300)


def run(
    scale: ExperimentScale = ExperimentScale.paper(),
    *,
    window_sizes: Sequence[int] = PAPER_WINDOW_SIZES,
    k: int = 50,
    thres: float = 0.9,
    videos=None,
    workers: Optional[int] = None,
) -> List[ExperimentRecord]:
    return counting_sweep(
        scale,
        lambda session: [
            SweepPoint(session, k=k, thres=thres,
                       window_size=None if window == 1 else window)
            for window in window_sizes
            # Keep at least ~3K windows so Top-K remains meaningful.
            if window == 1 or len(session.video) // window >= 3 * k
        ],
        videos=videos, workers=workers)


def render(records: List[ExperimentRecord]) -> str:
    rows = [
        [
            r.video,
            f"w={r.window_size or 1}",
            f"{r.speedup:.1f}x",
            f"{r.metrics.precision:.3f}",
            f"{r.metrics.rank_distance:.5f}",
            f"{r.metrics.score_error:.4f}",
        ]
        for r in records
    ]
    return format_table(
        ("video", "window", "speedup", "precision", "rank-dist",
         "score-err"),
        rows,
        title="Figure 7: varying the window size (Top-50, thres=0.9)",
    )


main = experiment_main(run, render)


if __name__ == "__main__":  # pragma: no cover
    main()

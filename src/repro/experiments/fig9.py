"""Figure 9: a different scoring function (deep depth estimator).

The fleet-management use case: Top-K most dangerous tailgating moments
on two dashcam videos, scored by a (simulated) monocular depth
estimator. Scenarios follow the paper: default Top-50 (thres=0.9),
Top-100, Top-50 with thres=0.75, and a Top-50 window query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..api.session import Session
from ..oracle.depth import tailgating_udf
from .runner import (
    ExperimentRecord,
    ExperimentScale,
    SweepPoint,
    config_for,
    dashcam_videos,
    execute_sweep,
    experiment_main,
    format_table,
)


@dataclass(frozen=True)
class Scenario:
    """One Figure 9 scenario."""

    label: str
    k: int
    thres: float
    window_size: Optional[int] = None


PAPER_SCENARIOS: Sequence[Scenario] = (
    Scenario("top50", 50, 0.9),
    Scenario("top100", 100, 0.9),
    Scenario("top50-thres0.75", 50, 0.75),
    Scenario("top50-window30", 50, 0.9, window_size=30),
)


def run(
    scale: ExperimentScale = ExperimentScale.paper(),
    *,
    scenarios: Sequence[Scenario] = PAPER_SCENARIOS,
    videos=None,
    workers: Optional[int] = None,
) -> List[ExperimentRecord]:
    if videos is None:
        videos = dashcam_videos(scale)
    config = config_for(scale)
    points: List[SweepPoint] = []
    for video in videos:
        scoring = tailgating_udf()
        session = Session(video, scoring, config=config)
        for scenario in scenarios:
            if scenario.window_size and \
                    len(video) // scenario.window_size < 3 * scenario.k:
                continue
            points.append(SweepPoint(
                session, k=scenario.k, thres=scenario.thres,
                window_size=scenario.window_size, label=scenario.label))
    return execute_sweep(points, workers=workers)


def render(records: List[ExperimentRecord]) -> str:
    rows = [
        [
            r.video,
            str(r.extras.get("scenario", "")),
            f"{r.speedup:.1f}x",
            f"{r.metrics.precision:.3f}",
            f"{r.metrics.rank_distance:.5f}",
            f"{r.metrics.score_error:.4f}",
        ]
        for r in records
    ]
    return format_table(
        ("video", "scenario", "speedup", "precision", "rank-dist",
         "score-err"),
        rows,
        title="Figure 9: scoring with a deep depth estimator "
              "(tailgating UDF)",
    )


main = experiment_main(run, render)


if __name__ == "__main__":  # pragma: no cover
    main()

"""Figure 8: impact of object density (Visual Road benchmark).

Five synthetic Visual-Road-style videos sharing one camera/scene with
the total car population swept from 50 to 250 (paper Section 4.2.4).
The paper's finding: Everest's speedup and accuracy are insensitive to
the object density.
"""

from __future__ import annotations

from typing import List, Sequence

from ..oracle.detector import counting_udf
from ..video.visual_road import PAPER_DENSITIES, visual_road_suite
from .runner import (
    ExperimentRecord,
    ExperimentScale,
    config_for,
    experiment_main,
    format_table,
    run_everest,
)


def run(
    scale: ExperimentScale = ExperimentScale.paper(),
    *,
    densities: Sequence[int] = PAPER_DENSITIES,
    k: int = 50,
    thres: float = 0.9,
) -> List[ExperimentRecord]:
    videos = visual_road_suite(
        densities,
        num_frames=scale.visual_road_frames,
        resolution=scale.resolution,
    )
    config = config_for(scale)
    records: List[ExperimentRecord] = []
    for video, density in zip(videos, densities):
        record = run_everest(
            video, counting_udf("car"), k=k, thres=thres, config=config)
        record.extras["density"] = float(density)
        records.append(record)
    return records


def render(records: List[ExperimentRecord]) -> str:
    rows = [
        [
            r.video,
            f"{int(r.extras.get('density', 0))} cars",
            f"{r.speedup:.1f}x",
            f"{r.metrics.precision:.3f}",
            f"{r.metrics.rank_distance:.5f}",
            f"{r.metrics.score_error:.4f}",
        ]
        for r in records
    ]
    return format_table(
        ("video", "density", "speedup", "precision", "rank-dist",
         "score-err"),
        rows,
        title="Figure 8: varying the number of objects "
              "(Visual Road, Top-50, thres=0.9)",
    )


main = experiment_main(run, render)


if __name__ == "__main__":  # pragma: no cover
    main()

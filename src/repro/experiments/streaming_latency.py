"""Streaming experiment: per-append latency and oracle calls vs batch.

Not a paper figure — the paper's engine only sees finished videos —
but the measurement that justifies the streaming subsystem
(DESIGN.md §7): feed a video in chunks and compare, per append,

* the **live** path (incremental Phase 1 + cache-backed re-certify):
  wall latency and *fresh* oracle calls actually paid, against
* the **batch re-run** path (a from-scratch session over the same
  prefix): wall latency and total oracle calls.

The live answers are bit-identical to the batch ones (certified by
``tests/test_streaming_equivalence.py``); this experiment measures
what that equivalence costs. The headline shape: batch re-run cost
grows with the watermark, live cost grows with the delta.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

from ..api.session import Session
from ..errors import ConfigurationError
from ..oracle.detector import counting_udf
from ..video.datasets import COUNTING_DATASETS
from .runner import (
    ExperimentScale,
    config_for,
    experiment_main,
    format_table,
)


@dataclass
class AppendMeasurement:
    """One append, measured both ways."""

    watermark: int
    delta: int
    live_seconds: float
    live_fresh_calls: int
    batch_seconds: float
    batch_calls: int
    identical: bool


def run(
    scale: ExperimentScale = ExperimentScale.paper(),
    *,
    dataset: str = "archie",
    num_appends: int = 5,
    k: int = 5,
    thres: float = 0.9,
    bootstrap_fraction: float = 0.4,
    videos=None,
) -> List[AppendMeasurement]:
    """Measure ``num_appends`` equal chunks on one counting video."""
    if videos is None:
        spec = COUNTING_DATASETS[dataset]
        video = spec.build(
            scale.dataset_scale,
            resolution=scale.resolution,
            min_frames=scale.min_frames,
        )
    else:
        video = videos[0]
    config = config_for(scale)
    scoring = counting_udf(getattr(video, "object_label", "car"))
    bootstrap = max(1, int(bootstrap_fraction * len(video)))
    chunk = (len(video) - bootstrap) // num_appends
    if chunk < 1:
        raise ConfigurationError(
            f"video leaves {len(video) - bootstrap} frames after the "
            f"bootstrap; cannot split into {num_appends} appends")

    stream = Session.open_stream(
        video, scoring, initial_frames=bootstrap, config=config)
    live = stream.query().topk(k).guarantee(thres).subscribe()

    measurements: List[AppendMeasurement] = []
    # Exactly num_appends equal chunks; the floor's remainder frames
    # simply never arrive (chunk * num_appends <= remaining).
    for _ in range(num_appends):
        result = stream.append(chunk)

        batch_started = time.perf_counter()
        batch = stream.batch_session()
        reference = batch.query().topk(k).guarantee(thres).run()
        batch_seconds = time.perf_counter() - batch_started

        measurements.append(AppendMeasurement(
            watermark=result.watermark,
            delta=result.segment.num_frames,
            live_seconds=result.wall_seconds,
            live_fresh_calls=result.fresh_oracle_calls,
            batch_seconds=batch_seconds,
            batch_calls=reference.oracle_calls,
            identical=reference.to_json() == live.latest.to_json(),
        ))
    return measurements


def render(measurements: Sequence[AppendMeasurement]) -> str:
    rows = [
        [
            f"{m.watermark:,}",
            f"{m.delta:,}",
            f"{m.live_seconds:.2f}s",
            f"{m.live_fresh_calls}",
            f"{m.batch_seconds:.2f}s",
            f"{m.batch_calls}",
            "yes" if m.identical else "NO",
        ]
        for m in measurements
    ]
    total_live = sum(m.live_fresh_calls for m in measurements)
    total_batch = sum(m.batch_calls for m in measurements)
    table = format_table(
        ("watermark", "delta", "live-lat", "live-fresh-calls",
         "batch-lat", "batch-calls", "identical"),
        rows,
        title="Streaming: per-append cost vs batch re-run",
    )
    return (
        f"{table}\n"
        f"totals: live fresh oracle calls={total_live:,} vs "
        f"batch re-run calls={total_batch:,} "
        f"({total_live / max(total_batch, 1):.1%} of batch)"
    )


main = experiment_main(run, render)


if __name__ == "__main__":  # pragma: no cover
    main()

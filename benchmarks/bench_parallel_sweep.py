"""Bench for sweeps through the query service: speedup vs. worker count.

Runs two fig5-style K sweeps (four Ks per video) through
``QueryService(workers=N)`` at 1, 2 and 4 workers, printing the
wall-clock speedup curves:

* a **warm** grid — two videos whose Phase 1 is prebuilt (adopted by
  fresh sessions), so only Phase 2 is timed, and
* a **cold** grid — fresh sessions over the first four counting
  videos, so each video's Phase 1 builds inside the timed run (side by
  side in pool workers at more than one worker).

Asserts the two halves of the acceptance contract:

* reports are byte-identical (``QueryReport.to_json``) at every
  worker count, warm and cold alike, and
* with at least 4 usable CPUs, 4 workers run the *cold* grid >= 2x
  faster than 1 worker — the only shape a pool can speed up (a warm
  grid's Phase 2 is milliseconds a query; on fewer CPUs the speedup is
  reported, not asserted — a pool cannot beat the hardware).
"""

from __future__ import annotations

import time

from repro.experiments.runner import (
    config_for,
    counting_videos,
    format_table,
)
from repro.api import Session
from repro.oracle import counting_udf
from repro.service import QueryService

from bench_util import available_cpus, scale_label, write_bench_result

WORKER_COUNTS = (1, 2, 4)
SWEEP_KS = (5, 25, 50, 100)
WARM_VIDEOS = 2
COLD_VIDEOS = 4


def _sessions(bench_scale, count, entries=None):
    """Fresh sessions over the first ``count`` counting videos, each
    adopting its prebuilt Phase-1 entry when ``entries`` are given."""
    config = config_for(bench_scale)
    sessions = []
    for index, video in enumerate(counting_videos(bench_scale)[:count]):
        session = Session(
            video, counting_udf(video.object_label), config=config)
        if entries is not None:
            session.adopt_phase1(entries[index], config)
        sessions.append(session)
    return sessions


def _run_grid(sessions, workers):
    """``(report JSONs, wall seconds)`` of one sweep through a service."""
    start = time.perf_counter()
    with QueryService(workers=workers, max_pending=None) as service:
        futures = [
            service.submit(session.query().topk(k).guarantee(0.9))
            for session in sessions for k in SWEEP_KS
        ]
        reports = service.gather(futures)
    return [r.to_json() for r in reports], time.perf_counter() - start


def test_parallel_sweep_speedup(bench_scale):
    entries = [
        session.phase1()
        for session in _sessions(bench_scale, WARM_VIDEOS)
    ]
    timings = {"warm": {}, "cold": {}}
    jsons = {"warm": {}, "cold": {}}
    for workers in WORKER_COUNTS:
        jsons["warm"][workers], timings["warm"][workers] = _run_grid(
            _sessions(bench_scale, WARM_VIDEOS, entries), workers)
        jsons["cold"][workers], timings["cold"][workers] = _run_grid(
            _sessions(bench_scale, COLD_VIDEOS), workers)

    rows = [
        [
            grid,
            f"{workers}",
            f"{timings[grid][workers]:.2f}s",
            f"{timings[grid][1] / timings[grid][workers]:.2f}x",
        ]
        for grid in ("warm", "cold")
        for workers in WORKER_COUNTS
    ]
    print()
    print(format_table(
        ("grid", "workers", "wall-clock", "speedup"),
        rows,
        title=f"Sweeps through QueryService: "
              f"{WARM_VIDEOS * len(SWEEP_KS)} warm / "
              f"{COLD_VIDEOS * len(SWEEP_KS)} cold queries, "
              f"{available_cpus()} usable CPUs",
    ))

    speedup = {
        grid: timings[grid][1] / timings[grid][4] for grid in timings}
    write_bench_result(
        "parallel_sweep",
        scale=scale_label(bench_scale),
        seconds=sum(sum(t.values()) for t in timings.values()),
        margin=speedup["cold"] - 2.0 if available_cpus() >= 4 else None,
        grid_points={
            "warm": WARM_VIDEOS * len(SWEEP_KS),
            "cold": COLD_VIDEOS * len(SWEEP_KS),
        },
        wall_seconds={
            grid: {str(w): timings[grid][w] for w in WORKER_COUNTS}
            for grid in timings
        },
        speedup_4=speedup,
        byte_identical=True,
    )

    # Bit-identical reports at every worker count; the warm grid's
    # videos lead the cold grid, so their reports agree too.
    for grid in ("warm", "cold"):
        for workers in WORKER_COUNTS[1:]:
            assert jsons[grid][workers] == jsons[grid][1], \
                f"{grid} workers={workers}"
    assert jsons["warm"][1] == \
        jsons["cold"][1][:WARM_VIDEOS * len(SWEEP_KS)]

    # Wall-clock acceptance: >= 2x at 4 workers on the cold grid, when
    # the hardware can.
    if available_cpus() >= 4:
        assert speedup["cold"] >= 2.0, (
            f"expected >= 2x cold-sweep speedup with 4 workers on "
            f"{available_cpus()} CPUs, got {speedup['cold']:.2f}x")

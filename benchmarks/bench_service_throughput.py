"""Bench for the concurrent query service: throughput vs a for-loop.

A mixed 16-query workload — four videos x four (k, thres, window)
shapes, the traffic profile of independent tenants — is executed two
ways:

* **serial-shared** — one ``Session`` per video executed serially
  (Phase 1 amortized by hand, no concurrency): the honest baseline;
* **service** — one ``QueryService`` at 4 workers: single-flight
  Phase-1 sharing, cross-query score-cache reuse, concurrent Phase 2.

Gates: reports byte-identical across both executions, and exactly one
Phase-1 build per video. ``service / serial-shared`` is recorded; with
>= 4 usable CPUs the service must beat the baseline by >= 1.5x (that
margin is pure concurrency, so on fewer CPUs it is reported only).
The old ">= 2x a fresh Session per query" gate compared against a
strawman — single-flight sharing alone removes 12 of 16 builds — and
is gone; perfbench's ``service_mixed`` is the measured workload.
"""

from __future__ import annotations

import time

from repro import EverestConfig, QueryService, Session
from repro.experiments.runner import format_table
from repro.oracle import counting_udf
from repro.video import TrafficVideo

from bench_util import available_cpus, scale_label, write_bench_result

WORKERS = 4
VIDEO_FRAMES = 800
VIDEO_SEEDS = (101, 102, 103, 104)
#: (k, thres, window_size) shapes mixed across the videos.
SHAPES = ((5, 0.9, 0), (10, 0.9, 0), (5, 0.95, 0), (4, 0.9, 20))


def _config() -> EverestConfig:
    return EverestConfig.fast()


def _video(seed: int) -> TrafficVideo:
    return TrafficVideo(f"svc-bench-{seed}", VIDEO_FRAMES, seed=seed)


def _workload():
    """(video seed, k, thres, window) for all 16 queries, interleaved."""
    return [
        (seed, k, thres, window)
        for k, thres, window in SHAPES
        for seed in VIDEO_SEEDS
    ]


def _query(session, k, thres, window):
    query = session.query().topk(k).guarantee(thres)
    if window:
        query = query.windows(size=window)
    return query


def _run_serial_shared(workload):
    sessions = {
        seed: Session(_video(seed), counting_udf("car"), config=_config())
        for seed in VIDEO_SEEDS
    }
    return [
        _query(sessions[seed], k, thres, window).run()
        for seed, k, thres, window in workload
    ]


def _run_service(workload):
    with QueryService(workers=WORKERS) as service:
        sessions = {
            seed: service.open_session(
                _video(seed), counting_udf("car"), config=_config())
            for seed in VIDEO_SEEDS
        }
        futures = [
            service.submit(
                _query(sessions[seed], k, thres, window),
                tenant=f"tenant-{seed % 2}")
            for seed, k, thres, window in workload
        ]
        reports = service.gather(futures, timeout=600)
        stats = service.stats()
    return reports, stats


def test_service_throughput(benchmark=None):
    workload = _workload()

    start = time.perf_counter()
    shared = _run_serial_shared(workload)
    t_shared = time.perf_counter() - start

    start = time.perf_counter()
    serviced, stats = _run_service(workload)
    t_service = time.perf_counter() - start

    queries = len(workload)
    speedup = t_shared / t_service
    rows = [
        ["serial-shared", f"{t_shared:.2f}s",
         f"{queries / t_shared:.2f} q/s", "1.00x"],
        [f"service ({WORKERS} workers)", f"{t_service:.2f}s",
         f"{queries / t_service:.2f} q/s", f"{speedup:.2f}x"],
    ]
    print()
    print(format_table(
        ("execution", "wall-clock", "throughput", "speedup"),
        rows,
        title=f"Query service: mixed {queries}-query workload over "
              f"{len(VIDEO_SEEDS)} videos, {available_cpus()} usable "
              f"CPUs, lane={'processes' if stats.use_processes else 'threads'}",
    ))

    # Same answers, byte for byte.
    assert [report.to_json() for report in serviced] == \
        [report.to_json() for report in shared]

    # Cross-query sharing did its job: one build per video.
    assert stats.builds == len(VIDEO_SEEDS)
    assert stats.completed == queries

    # With real parallel hardware the service must beat the
    # hand-amortized serial baseline (pure concurrency margin).
    gated = available_cpus() >= 4
    write_bench_result(
        "service_throughput",
        scale=scale_label(),
        seconds=t_shared + t_service,
        margin=speedup - 1.5 if gated else None,
        queries=queries,
        serial_shared_seconds=t_shared,
        service_seconds=t_service,
        speedup=speedup,
        builds=stats.builds,
        byte_identical=True,
    )
    if gated:
        assert speedup >= 1.5, (
            f"expected >= 1.5x over serial-shared on "
            f"{available_cpus()} CPUs, got {speedup:.2f}x")


if __name__ == "__main__":  # pragma: no cover
    test_service_throughput()

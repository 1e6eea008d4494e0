"""Acceptance bench for workload planning (DESIGN.md §11).

A mixed 32-query workload — four videos x eight (k, thres) shapes,
every query arriving on its *own* session (independent tenants who
never hand-share state) — is executed three ways, the two service arms
on the *same default service* (one worker, a 2-entry artifact LRU):

* **serial reference** — one session per video executed serially: the
  byte-identity oracle for both service arms;
* **arrival order** — queries submitted one by one as they arrive
  (video-interleaved): every lease misses residency and rebuilds — the
  thrash an order blind to artifacts pays;
* **planned order** — the same submissions routed through
  ``plan_workload()`` / ``submit_plan()``: the plan groups
  same-artifact queries, so each artifact builds once.

What is measured is Phase-1 builds and the simulated seconds the run
physically paid (builds plus cache-missing confirmations) — nothing is
priced or predicted. Acceptance, gated at every scale:

* all three executions produce **byte-identical** reports per query —
  the plan moves cost, never answers;
* planned order pays **one build per video** (4) while arrival order
  pays one per query (32);
* planned order's physical simulated cost beats arrival order's by
  **>= 2x** (structural: ~7x expected); at quick scale the simulated
  ledgers are deterministic and pinned to the digit.

The machine-readable summary lands in ``results/BENCH_optimizer.json``
(override with ``REPRO_BENCH_OPTIMIZER_JSON``).
"""

from __future__ import annotations

import os
import time

from repro import EverestConfig, QueryService, Session
from repro.experiments.runner import format_table
from repro.oracle import counting_udf
from repro.video import TrafficVideo

from bench_util import write_bench_result

#: Margin planned order must clear over arrival order on physical cost.
MIN_PHYSICAL_RATIO = 2.0
#: Quick scale, to the digit: (builds, physical simulated seconds).
QUICK_ARRIVAL = (32, 1437.2)
QUICK_PLANNED = (4, 198.0)

VIDEO_SEEDS = (201, 202, 203, 204)
#: (k, thres) shapes mixed across the videos: 8 per video.
SHAPES = tuple(
    (k, thres) for thres in (0.9, 0.95) for k in (3, 5, 8, 10))
#: Artifact LRU small enough that interleaved arrival order thrashes it.
ARTIFACT_ENTRIES = 2


def _config() -> EverestConfig:
    return EverestConfig.fast()


def _frames(strict: bool) -> int:
    return 600 if strict else 240


def _video(seed: int, frames: int) -> TrafficVideo:
    return TrafficVideo(f"opt-bench-{seed}", frames, seed=seed)


def _workload():
    """(video seed, k, thres) for all 32 queries, video-interleaved."""
    return [
        (seed, k, thres)
        for k, thres in SHAPES
        for seed in VIDEO_SEEDS
    ]


def _query(session, k, thres):
    return session.query().topk(k).guarantee(thres)


def _run_serial(workload, frames):
    sessions = {
        seed: Session(
            _video(seed, frames), counting_udf("car"), config=_config())
        for seed in VIDEO_SEEDS
    }
    return [
        _query(sessions[seed], k, thres).run()
        for seed, k, thres in workload
    ]


def _open_sessions(service, workload, frames):
    """One fresh session per query — nobody hand-shares Phase 1."""
    return [
        service.open_session(
            _video(seed, frames), counting_udf("car"), config=_config())
        for seed, _k, _thres in workload
    ]


def _physical_seconds(service, futures):
    """Simulated seconds the run physically paid: builds (including
    every LRU-thrash rebuild) plus cache-missing confirmations."""
    stats = service.stats()
    confirm_seconds = 0.0
    for outcome in (future.outcome() for future in futures):
        per_call = (
            outcome.phase2_cost.seconds("oracle_confirm")
            / max(outcome.phase2_cost.units("oracle_confirm"), 1.0))
        confirm_seconds += outcome.fresh_confirm_calls * per_call
    return stats.build_seconds + confirm_seconds, stats


def _run_service(workload, frames, *, planned):
    """The 32 queries on a default service, in arrival or planned order."""
    with QueryService(
            workers=1, use_processes=False,
            artifact_entries=ARTIFACT_ENTRIES) as service:
        sessions = _open_sessions(service, workload, frames)
        queries = [
            _query(session, k, thres)
            for session, (_seed, k, thres) in zip(sessions, workload)
        ]
        if planned:
            plan = service.plan_workload(queries)
            futures = service.submit_plan(plan, tenant="bench")
        else:
            plan = None
            futures = [
                service.submit(query, tenant="bench") for query in queries]
        reports = service.gather(futures, timeout=600)
        physical, stats = _physical_seconds(service, futures)
    return reports, physical, stats, plan


def test_optimizer_workload(bench_scale, bench_strict, benchmark=None):
    frames = _frames(bench_strict)
    workload = _workload()
    queries = len(workload)

    start = time.perf_counter()
    reference = _run_serial(workload, frames)
    t_serial = time.perf_counter() - start

    start = time.perf_counter()
    arrival_reports, arrival_physical, arrival_stats, _ = _run_service(
        workload, frames, planned=False)
    t_arrival = time.perf_counter() - start

    start = time.perf_counter()
    planned_reports, planned_physical, planned_stats, plan = _run_service(
        workload, frames, planned=True)
    t_planned = time.perf_counter() - start

    ratio = arrival_physical / planned_physical
    rows = [
        ["serial reference", f"{t_serial:.2f}s", "-", "-", "-"],
        ["arrival order", f"{t_arrival:.2f}s", str(arrival_stats.builds),
         f"{arrival_physical:.1f}s", "1.00x"],
        ["planned order", f"{t_planned:.2f}s", str(planned_stats.builds),
         f"{planned_physical:.1f}s", f"{ratio:.2f}x"],
    ]
    print()
    print(format_table(
        ("execution", "wall-clock", "builds", "physical cost", "margin"),
        rows,
        title=f"Workload plan: {queries}-query mixed workload over "
              f"{len(VIDEO_SEEDS)} videos x {len(SHAPES)} shapes, "
              f"artifact LRU={ARTIFACT_ENTRIES}, {frames} frames",
    ))

    # Byte identity: the plan moves cost, never answers.
    expected = [report.to_json() for report in reference]
    assert [report.to_json() for report in arrival_reports] == expected
    assert [report.to_json() for report in planned_reports] == expected

    # Structure: arrival order thrashes the 2-entry LRU (one build per
    # query), the planned order builds each artifact exactly once.
    assert arrival_stats.builds == queries
    assert planned_stats.builds == len(VIDEO_SEEDS)
    assert (arrival_stats.planned, planned_stats.planned) == (0, queries)

    # The gated margin.
    assert ratio >= MIN_PHYSICAL_RATIO, (
        f"expected planned order to pay <= 1/{MIN_PHYSICAL_RATIO}x "
        f"arrival order's physical cost, got {ratio:.2f}x")
    if not bench_strict:
        assert (arrival_stats.builds, round(arrival_physical, 1)) \
            == QUICK_ARRIVAL
        assert (planned_stats.builds, round(planned_physical, 1)) \
            == QUICK_PLANNED

    out = write_bench_result(
        "optimizer",
        scale="bench" if bench_strict else "quick",
        seconds=t_serial + t_arrival + t_planned,
        margin=ratio - MIN_PHYSICAL_RATIO,
        queries=queries,
        videos=len(VIDEO_SEEDS),
        frames=frames,
        artifact_entries=ARTIFACT_ENTRIES,
        byte_identical=True,
        planned_order=plan.order(),
        arrival={
            "wall_seconds": round(t_arrival, 3),
            "builds": arrival_stats.builds,
            "build_seconds": round(arrival_stats.build_seconds, 3),
            "physical_seconds": round(arrival_physical, 3),
        },
        planned={
            "wall_seconds": round(t_planned, 3),
            "builds": planned_stats.builds,
            "build_seconds": round(planned_stats.build_seconds, 3),
            "physical_seconds": round(planned_physical, 3),
        },
        physical_ratio=round(ratio, 3),
        min_physical_ratio=MIN_PHYSICAL_RATIO,
    )
    print(f"\nsummary -> {out}")


if __name__ == "__main__":  # pragma: no cover
    os.environ.setdefault("REPRO_BENCH_SCALE", "quick")

    class _Scale:
        min_frames = 0

    test_optimizer_workload(_Scale(), False)

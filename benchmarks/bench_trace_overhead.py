"""Acceptance bench for the tracing subsystem (DESIGN.md §12).

A mixed 16-query workload — four videos x four (k, thres, window)
shapes — runs through one :class:`~repro.service.service.QueryService`
four ways: tracing off and on, on each execution lane. Gates (at every
scale):

* **Purity** — reports byte-identical and Phase-2 ledgers
  charge-for-charge identical, tracing on vs off, on both lanes;
* **Completeness** — every traced query's root span is closed and its
  direct children cover >= 95% of the root's wall time;
* **Exportability** — the Chrome ``trace_event`` document for the
  whole workload round-trips through JSON and every span nests inside
  its parent.

What tracing *costs* is not measured here: on this class of box a
paired CPU-time comparison read anywhere from -25% to +21%, so the
number proved nothing. perfbench's ``trace.overhead_frac`` (under its
noise model) is the measured figure.

The machine-readable summary lands in ``results/BENCH_trace.json``
(override with ``REPRO_BENCH_TRACE_JSON``).
"""

from __future__ import annotations

import json
import time

from repro import EverestConfig, QueryService
from repro.experiments.runner import format_table
from repro.oracle import counting_udf
from repro.trace import NULL_TRACER, Tracer, chrome_trace
from repro.video import TrafficVideo

from bench_util import scale_label, write_bench_result

MIN_COVERAGE = 0.95

VIDEO_SEEDS = (301, 302, 303, 304)
#: (k, thres, window_size) shapes mixed across the videos: 16 queries.
SHAPES = ((5, 0.9, 0), (10, 0.9, 0), (5, 0.95, 0), (4, 0.9, 20))


def _video(seed: int, frames: int) -> TrafficVideo:
    return TrafficVideo(f"trace-bench-{seed}", frames, seed=seed)


def _workload():
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


def _ledger_fingerprint(cost) -> dict:
    return {
        key: (cost.units(key), seconds)
        for key, seconds in sorted(cost.breakdown().items())
    }


def _run(workload, frames, *, tracer, use_processes):
    """One full pass: ``(report bytes, ledgers, traces)``."""
    with QueryService(
            workers=2, use_processes=use_processes, tracer=tracer) as svc:
        sessions = {
            seed: svc.open_session(
                _video(seed, frames), counting_udf("car"),
                config=EverestConfig.fast())
            for seed in VIDEO_SEEDS
        }
        futures = [
            svc.submit(
                _query(sessions[seed], k, thres, window),
                tenant=f"tenant-{seed % 2}")
            for seed, k, thres, window in workload
        ]
        reports = svc.gather(futures, timeout=600)
    return (
        [report.to_json() for report in reports],
        [_ledger_fingerprint(f.outcome().phase2_cost) for f in futures],
        tracer.traces(),
    )


def _check_traces(traces, queries):
    """Completeness + coverage + nesting gates; returns min coverage."""
    assert len(traces) == queries, (len(traces), queries)
    worst = 1.0
    for trace in traces:
        dump = trace.to_dict()
        root = dump["spans"][0]
        assert root["parent_id"] is None, "first span must be the root"
        assert trace.finished and root["status"] == "ok"
        by_id = {s["span_id"]: s for s in dump["spans"]}
        for record in dump["spans"]:
            parent_id = record["parent_id"]
            if parent_id is None:
                continue
            parent = by_id[parent_id]
            assert record["start"] >= parent["start"] - 1e-6, \
                f"span {record['name']} starts before its parent"
        children = [s for s in dump["spans"]
                    if s["parent_id"] == root["span_id"]]
        coverage = (
            sum(s["duration"] for s in children)
            / max(root["duration"], 1e-12))
        worst = min(worst, coverage)
        assert coverage >= MIN_COVERAGE, (
            f"root children cover only {coverage:.1%} of "
            f"{trace.trace_id} ({trace.name})")
    return worst


def test_trace_overhead(bench_scale, bench_strict, benchmark=None):
    frames = 600 if bench_strict else 240
    workload = _workload()
    queries = len(workload)
    started = time.perf_counter()

    coverage = {}
    for lane, use_processes in {"inline": False, "process": True}.items():
        base_reports, base_ledgers, _ = _run(
            workload, frames, tracer=NULL_TRACER,
            use_processes=use_processes)
        reports, ledgers, traces = _run(
            workload, frames, tracer=Tracer(ring=queries),
            use_processes=use_processes)
        assert reports == base_reports, \
            f"tracing changed report bytes on the {lane} lane"
        assert ledgers == base_ledgers, \
            f"tracing changed ledger charges on the {lane} lane"
        coverage[lane] = _check_traces(traces, queries)

        document = json.loads(json.dumps(chrome_trace(traces)))
        events = document["traceEvents"]
        assert len(events) > queries
        assert {"M", "X"} <= {e["ph"] for e in events}

    print()
    print(format_table(
        ("lane", "worst root coverage", "gate"),
        [[lane, f"{worst:.2%}", f">= {MIN_COVERAGE:.0%}"]
         for lane, worst in coverage.items()],
        title=f"Trace purity + completeness: {queries}-query mixed "
              f"workload, {frames} frames/video"))

    write_bench_result(
        "trace",
        scale=scale_label(bench_scale),
        seconds=time.perf_counter() - started,
        margin=min(coverage.values()) - MIN_COVERAGE,
        queries=queries,
        frames=frames,
        min_root_coverage=min(coverage.values()),
        byte_identical=True,
        ledger_identical=True,
    )


if __name__ == "__main__":  # pragma: no cover
    import os

    os.environ.setdefault("REPRO_BENCH_SCALE", "quick")

    class _Scale:
        min_frames = 0

    test_trace_overhead(_Scale(), False)

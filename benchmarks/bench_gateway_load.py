"""Bench for the multi-tenant gateway under open-loop load.

A deterministic plan of queries and streaming appends — 1200+
simulated tenants, Zipf-skewed video popularity, a hot tenant pinned
to an abusive quota — is fired open-loop into an in-process
:class:`~repro.gateway.app.Gateway`, then a smaller slice is replayed
over the real asyncio HTTP server. Acceptance (the PR's contract):

* **Zero dropped appends** — every applied append is visible in the
  final stream watermarks (frame-exact accounting), and the
  ``appends_dropped_total`` counter is 0.
* **Byte-identity** — every report the gateway served equals, byte
  for byte, the report from a direct inline ``Session`` /
  ``VideoCorpus`` execution of the same (spec, k, guarantee).
* **Reconciled metrics** — the ``/metrics`` exposition parses and
  every per-tenant counter equals the generator's ground truth.
* **Bounded latency** — p50/p99 submit→complete latency under loose,
  pathology-catching ceilings (they flag a deadlock or a scheduling
  collapse, not a slow machine).
* **Backpressure engaged** — the abusive tenant saw real 429s.

The machine-readable summary lands in ``results/BENCH_gateway.json``
(override with ``REPRO_BENCH_GATEWAY_JSON``).
"""

from __future__ import annotations

import os
import time

from repro.api.registry import resolve_query_spec
from repro.config import EverestConfig
from repro.experiments.runner import format_table
from repro.gateway import (
    Gateway,
    GatewayConfig,
    GatewayServer,
    QuotaPolicy,
)
from repro.gateway.loadgen import (
    HTTPTransport,
    InProcessTransport,
    LoadSpec,
    build_plan,
    reconcile,
    run_plan,
)

from bench_util import available_cpus, write_bench_result

#: Query specs in popularity order; one corpus spec in the mix so the
#: federated path is exercised on the wire too.
SPECS = (
    "count[car]/traffic",
    "count[person]/traffic",
    "count[car]/dashcam",
    "count[car]@{traffic,dashcam}",
)
STREAM_SPEC = "count[car]/traffic"
VIDEO_KWARGS = {"num_frames": 600, "seed": 23}
INITIAL_FRAMES = 240
APPEND_FRAMES = 30

#: Latency ceilings (seconds): pathology detectors, not speed claims.
P50_CEILING = {"quick": 15.0, "bench": 30.0}
P99_CEILING = {"quick": 60.0, "bench": 180.0}


def _spec_for(scale_name: str) -> LoadSpec:
    quick = scale_name == "quick"
    return LoadSpec(
        specs=SPECS,
        num_tenants=1200 if quick else 2000,
        num_queries=260 if quick else 800,
        duration=2.5 if quick else 6.0,
        video_skew=1.1,
        tenant_skew=1.0,
        k_choices=(3, 5, 10),
        guarantee_choices=(0.9, 0.95),
        streams=(
            ("gw-stream-0", STREAM_SPEC, INITIAL_FRAMES),
            ("gw-stream-1", STREAM_SPEC, INITIAL_FRAMES),
        ),
        appends_per_stream=4 if quick else 8,
        append_frames=APPEND_FRAMES,
        seed=17,
    )


def _busiest_tenant(plan) -> str:
    counts = {}
    for op in plan:
        if op.kind == "query":
            counts[op.tenant] = counts.get(op.tenant, 0) + 1
    return max(counts, key=lambda tenant: (counts[tenant], tenant))


def _reference_reports(report) -> dict:
    """Direct inline execution for every distinct shape served."""
    shapes = sorted({
        (spec, k, guarantee)
        for (_tenant, spec, k, guarantee) in report.accepted.values()
    })
    targets = {}
    references = {}
    for spec, k, guarantee in shapes:
        target = targets.get(spec)
        if target is None:
            target = resolve_query_spec(
                spec, config=EverestConfig.fast(), **VIDEO_KWARGS)
            targets[spec] = target
        references[(spec, k, guarantee)] = (
            target.query().topk(k).guarantee(guarantee)
            .run().to_json())
    return references


def test_gateway_load(bench_scale, bench_strict, benchmark=None):
    scale_name = "bench" if bench_strict else "quick"
    spec = _spec_for(scale_name)
    plan = build_plan(spec)
    abusive = _busiest_tenant(plan)

    gateway = Gateway(
        config=GatewayConfig(
            video_kwargs=dict(VIDEO_KWARGS),
            tenant_quotas={
                # The hottest tenant gets an abusive-client quota: its
                # burst drains immediately and the bucket refills far
                # slower than its schedule, so backpressure must fire.
                abusive: QuotaPolicy(rate=0.5, burst=1,
                                     max_inflight=4),
            },
        ),
        workers=min(4, max(2, available_cpus())),
        use_processes=False,
    )
    with gateway:
        transport = InProcessTransport(gateway)
        for stream_id, stream_spec, initial in spec.streams:
            status, body = transport.request("POST", "/stream", {
                "tenant": "t00000" if stream_id.endswith("0")
                else "t00001",
                "stream": stream_id,
                "spec": stream_spec,
                "initial_frames": initial,
                "k": 3,
            })
            assert status == 201, (status, body)

        started = time.perf_counter()
        report = run_plan(transport, plan, guns=4,
                          poll_timeout=300.0)
        wall = time.perf_counter() - started

        # -- metrics reconcile against generator ground truth --------
        status, metrics_text = transport.request("GET", "/metrics")
        assert status == 200
        problems = reconcile(report, metrics_text)
        assert not problems, "\n".join(problems)

        # -- nothing got lost ----------------------------------------
        assert report.fired_ops == report.plan_ops
        assert report.unresolved == 0, (
            f"{report.unresolved} queries never reached a terminal "
            f"state")
        assert report.total(report.failed) == 0

        # -- zero dropped appends: frame-exact watermark accounting --
        applied_frames = {
            stream_id: initial
            for stream_id, _spec, initial in spec.streams
        }
        owner = {"gw-stream-0": "t00000", "gw-stream-1": "t00001"}
        per_stream_applied = {sid: 0 for sid in applied_frames}
        # The generator records the watermark after each applied
        # append; the final watermark must equal initial + 30 * applied
        # appends for that stream (frames are fixed-size).
        for stream_id in applied_frames:
            observed = report.watermarks.get(
                stream_id, applied_frames[stream_id])
            applied = report.appends_applied.get(owner[stream_id], 0)
            per_stream_applied[stream_id] = applied
            expected = applied_frames[stream_id] \
                + APPEND_FRAMES * applied
            assert observed == expected, (
                f"stream {stream_id}: watermark {observed} != "
                f"{expected} (dropped frames?)")
        assert report.appends_errored == 0

        # -- byte-identity vs direct inline execution ----------------
        references = _reference_reports(report)
        mismatched = [
            result_id
            for result_id, served in report.reports.items()
            if served != references[
                (report.accepted[result_id][1],
                 report.accepted[result_id][2],
                 report.accepted[result_id][3])]
        ]
        assert not mismatched, (
            f"{len(mismatched)} gateway reports differ from direct "
            f"inline execution: {mismatched[:5]}")

        # -- backpressure engaged on the abusive tenant --------------
        abusive_rejects = sum(
            count for (tenant, _reason), count in
            report.rejected.items() if tenant == abusive)
        assert abusive_rejects >= 1, (
            f"abusive tenant {abusive} was never rejected; quota "
            f"backpressure is not engaging")

        # -- latency ceilings ----------------------------------------
        p50 = report.latency_quantile(0.5)
        p95 = report.latency_quantile(0.95)
        p99 = report.latency_quantile(0.99)
        assert p50 <= P50_CEILING[scale_name], (
            f"p50 {p50:.2f}s exceeds the {scale_name} ceiling")
        assert p99 <= P99_CEILING[scale_name], (
            f"p99 {p99:.2f}s exceeds the {scale_name} ceiling")

        service_stats = gateway.service.stats()
        # Rows each hosted stream ran through its proxy network. Each
        # stream owns its inference blocks, so the second stream over
        # the same footage infers for itself.
        inferred = {
            stream_id: state.stream._maintainer.fresh_inferred_frames
            for stream_id, state in sorted(gateway._streams.items())}

        # -- a slice replayed over the real HTTP server --------------
        http_spec = LoadSpec(
            specs=SPECS[:2], num_tenants=50, num_queries=20,
            duration=0.5, seed=29)
        http_plan = build_plan(http_spec)
        with GatewayServer(gateway) as server:
            http = HTTPTransport(server.host, server.port,
                                 pool_size=8)
            http_report = run_plan(http, http_plan, guns=2,
                                   poll_timeout=120.0)
            status, http_metrics = http.request("GET", "/metrics")
            http.close()
        assert status == 200
        assert http_report.unresolved == 0
        assert http_report.total(http_report.failed) == 0
        http_references = dict(references)
        http_references.update(_reference_reports(http_report))
        http_mismatched = [
            rid for rid, served in http_report.reports.items()
            if served != http_references[
                (http_report.accepted[rid][1],
                 http_report.accepted[rid][2],
                 http_report.accepted[rid][3])]
        ]
        assert not http_mismatched, (
            f"{len(http_mismatched)} HTTP-served reports differ from "
            f"direct execution")

    completed = report.total(report.completed)
    throughput = completed / wall if wall > 0 else float("nan")
    rows = [
        ["tenants simulated", f"{spec.num_tenants}"],
        ["queries fired / completed",
         f"{report.total(report.submitted)} / {completed}"],
        ["rejected (429)", f"{report.total(report.rejected)}"],
        ["appends applied / frames",
         f"{report.total(report.appends_applied)} / "
         f"{report.total(report.append_frames)}"],
        ["p50 / p95 / p99 latency",
         f"{p50:.3f}s / {p95:.3f}s / {p99:.3f}s"],
        ["throughput", f"{throughput:.1f} q/s"],
        ["phase-1 hit rate",
         f"{service_stats.phase1_hit_rate:.2f}"],
        ["stream rows inferred",
         ", ".join(f"{sid} {rows}" for sid, rows in inferred.items())],
        ["max schedule lateness", f"{report.max_behind:.3f}s"],
        ["HTTP slice", f"{http_report.total(http_report.completed)} "
         f"queries byte-identical over sockets"],
    ]
    print()
    print(format_table(
        ("gateway open-loop load", scale_name), rows,
        title=f"Gateway load: {spec.num_queries} queries, "
              f"{spec.num_tenants} tenants, {available_cpus()} CPUs"))

    out = write_bench_result(
        "gateway",
        scale=scale_name,
        seconds=wall,
        margin=P99_CEILING[scale_name] - p99,
        tenants=spec.num_tenants,
        queries_planned=spec.num_queries,
        queries_submitted=report.total(report.submitted),
        queries_completed=completed,
        queries_rejected=report.total(report.rejected),
        appends_applied=report.total(report.appends_applied),
        append_frames=report.total(report.append_frames),
        appends_rejected=report.total(report.appends_rejected),
        dropped_appends=0,
        p50_seconds=p50,
        p95_seconds=p95,
        p99_seconds=p99,
        throughput_qps=throughput,
        wall_seconds=wall,
        max_behind_seconds=report.max_behind,
        phase1_hit_rate=service_stats.phase1_hit_rate,
        stream_inferred_rows=inferred,
        byte_identical=True,
        metrics_reconciled=True,
        http_slice_completed=http_report.total(http_report.completed),
    )
    print(f"wrote {out}")


if __name__ == "__main__":  # pragma: no cover
    class _Scale:
        min_frames = 600

    os.environ.setdefault("REPRO_BENCH_SCALE", "quick")
    test_gateway_load(_Scale(), False)

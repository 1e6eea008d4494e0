"""The tracing subsystem (DESIGN.md §12): purity, completeness, export.

The load-bearing contract: tracing is *observation only*. Reports must
stay byte-identical and ledgers charge-for-charge identical with
tracing on vs off, on both execution lanes, for streaming appends and
corpus queries. On top of that: every submitted query yields a closed
root span whatever path it died on, worker spans adopt cleanly across
the process boundary, and the exporters produce loadable output.
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

from repro import QueryService, Session
from repro.config import EverestConfig
from repro.corpus import VideoCorpus
from repro.errors import AdmissionError
from repro.gateway.metrics import (
    LATENCY_SAMPLES,
    LatencySummary,
    parse_metrics_text,
)
from repro.oracle import ScoringFunction, counting_udf
from repro.trace import (
    NULL_TRACER,
    JsonlTraceLog,
    Tracer,
    activate,
    active_span,
    add_event,
    chrome_trace,
    log_files,
    read_jsonl,
    span,
)
from repro.trace import exporters
from repro.video import TrafficVideo

FAST = EverestConfig.fast


def _video(seed: int = 11, frames: int = 300) -> TrafficVideo:
    return TrafficVideo(f"trace-{seed}", frames, seed=seed)


def _ledger_fingerprint(cost) -> dict:
    """Charge-for-charge ledger identity: every key's units + seconds."""
    return {
        key: (cost.units(key), seconds)
        for key, seconds in sorted(cost.breakdown().items())
    }


def _run_service(tracer, *, use_processes: bool, seed: int = 11):
    """The mixed mini-workload both purity tests compare."""
    with QueryService(
            workers=2, use_processes=use_processes, tracer=tracer) as svc:
        session = svc.open_session(
            _video(seed), counting_udf("car"), config=FAST())
        futures = [
            svc.submit(
                session.query().topk(k).guarantee(0.9),
                tenant=f"t{k % 2}")
            for k in (3, 5, 7)
        ]
        reports = svc.gather(futures, timeout=120)
    return (
        [report.to_json() for report in reports],
        [_ledger_fingerprint(f.outcome().phase2_cost) for f in futures],
    )


# ----------------------------------------------------------------------
# Purity: tracing never changes bytes or ledger floats.
# ----------------------------------------------------------------------
def test_tracing_is_pure_inline_lane():
    base_reports, base_ledgers = _run_service(
        NULL_TRACER, use_processes=False)
    traced_reports, traced_ledgers = _run_service(
        Tracer(), use_processes=False)
    assert traced_reports == base_reports
    assert traced_ledgers == base_ledgers


def test_tracing_is_pure_process_lane():
    base_reports, base_ledgers = _run_service(
        NULL_TRACER, use_processes=True, seed=12)
    traced_reports, traced_ledgers = _run_service(
        Tracer(), use_processes=True, seed=12)
    assert traced_reports == base_reports
    assert traced_ledgers == base_ledgers


def _run_stream(tracer, seed: int = 13):
    video = _video(seed, frames=420)
    with QueryService(
            workers=1, use_processes=False, tracer=tracer) as svc:
        stream = svc.open_stream(
            video, counting_udf("car"), initial_frames=240, config=FAST())
        live = stream.query().topk(5).guarantee(0.9).subscribe()
        snapshots = []
        for _ in range(3):
            result = stream.append(60)
            snapshots.append(
                (result.watermark, result.fresh_oracle_calls,
                 live.latest.to_json()))
    return snapshots


def test_tracing_is_pure_streaming_appends():
    assert _run_stream(Tracer()) == _run_stream(NULL_TRACER)


def _run_corpus(tracer, seed: int = 14):
    videos = [_video(seed + i, frames=240) for i in range(2)]
    corpus = VideoCorpus.open(videos, counting_udf("car"), config=FAST())
    with QueryService(
            workers=1, use_processes=False, tracer=tracer) as svc:
        future = svc.submit(
            corpus.query().topk(4).guarantee(0.9),
            tenant="fleet")
        return future.result(120).to_json()


def test_tracing_is_pure_corpus_query():
    assert _run_corpus(Tracer()) == _run_corpus(NULL_TRACER)


@pytest.mark.parametrize("use_processes", [False, True])
def test_every_corpus_confirm_is_traced(use_processes):
    # A corpus confirms through the plain caching oracle, so its trace
    # holds an oracle_confirm event for every Phase-2 confirm the
    # query's ledger charges, on either lane.
    videos = [
        TrafficVideo(f"trace-corpus-{i}", 500, seed=40 + i)
        for i in range(2)]
    corpus = VideoCorpus.open(videos, counting_udf("car"), config=FAST())
    tracer = Tracer()
    with QueryService(workers=2 if use_processes else 1,
                      use_processes=use_processes, tracer=tracer) as svc:
        future = svc.submit(corpus.query().topk(4).guarantee(0.9))
        future.result(180)
    confirms = future.outcome().phase2_cost.units("oracle_confirm")
    traced = sum(
        event["attrs"]["frames"]
        for record in tracer.get(future.trace_id).to_dict()["spans"]
        for event in record["events"]
        if event["name"] == "oracle_confirm"
        and event["attrs"]["cost_key"] == "oracle_confirm")
    assert confirms > 0
    assert traced == confirms


@pytest.mark.parametrize("use_processes", [False, True])
def test_a_cold_corpus_querys_member_builds_are_traced(use_processes):
    # The member builds a cold corpus query leases run on threads (on
    # the process lane), yet land in the query's trace as on the
    # inline lane: one phase1 and one artifact_build span per member,
    # and an oracle_label charge for every labelled frame. Counts, not
    # span ids: concurrent builds interleave ids.
    videos = [
        TrafficVideo(f"trace-cold-corpus-{i}", 500, seed=60 + i)
        for i in range(2)]
    corpus = VideoCorpus.open(videos, counting_udf("car"), config=FAST())
    tracer = Tracer()
    with QueryService(workers=2, use_processes=use_processes,
                      tracer=tracer) as svc:
        future = svc.submit(corpus.query().topk(4).guarantee(0.9))
        future.result(180)
    spans = tracer.get(future.trace_id).to_dict()["spans"]
    names = [record["name"] for record in spans]
    labelled = sum(
        event["attrs"]["frames"]
        for record in spans for event in record["events"]
        if event["name"] == "oracle_confirm"
        and event["attrs"]["cost_key"] == "oracle_label")
    assert labelled == 384
    assert names.count("phase1") == 2
    assert names.count("artifact_build") == 2


# ----------------------------------------------------------------------
# Structure: span tree shape, adoption, coverage.
# ----------------------------------------------------------------------
def test_trace_tree_has_the_request_spine():
    tracer = Tracer()
    with QueryService(workers=1, use_processes=False,
                      tracer=tracer) as svc:
        session = svc.open_session(
            _video(15), counting_udf("car"), config=FAST())
        future = svc.submit(
            session.query().topk(5).guarantee(0.9))
        future.result(120)
    trace = tracer.get(future.trace_id)
    assert trace is not None and trace.finished
    dump = trace.to_dict()
    root = dump["spans"][0]
    assert root["parent_id"] is None and root["status"] == "ok"
    children = [s for s in dump["spans"]
                if s["parent_id"] == root["span_id"]]
    names = [s["name"] for s in children]
    assert names[:3] == ["admission", "queue_wait", "execute"]
    all_names = {s["name"] for s in dump["spans"]}
    assert {"phase1", "clean_loop", "iteration"} <= all_names
    # Every span closed, none out of range of its parent by seconds.
    by_id = {s["span_id"]: s for s in dump["spans"]}
    for record in dump["spans"]:
        assert record["duration"] >= 0.0
        if record["parent_id"] is not None:
            parent = by_id[record["parent_id"]]
            assert record["start"] >= parent["start"] - 1e-6
    # Root children cover the root wall time (the ISSUE's >= 95% bar).
    coverage = sum(s["duration"] for s in children) / root["duration"]
    assert coverage >= 0.95
    # The query's simulated Phase-2 cost landed on its execute span.
    execute = children[names.index("execute")]
    assert execute["attrs"]["sim_seconds_total"] > 0


def test_worker_spans_adopt_across_the_process_lane():
    tracer = Tracer()
    with QueryService(workers=2, use_processes=True,
                      tracer=tracer) as svc:
        session = svc.open_session(
            _video(16), counting_udf("car"), config=FAST())
        future = svc.submit(
            session.query().topk(5).guarantee(0.9))
        future.result(180)
    dump = tracer.get(future.trace_id).to_dict()
    lane = [s for s in dump["spans"] if s["name"] == "lane_dispatch"]
    assert len(lane) == 1 and lane[0]["attrs"]["lane"] == "process"
    worker = [s for s in dump["spans"]
              if s["attrs"].get("process") == "worker"]
    assert worker, "worker spans must ship back and re-parent"
    ids = {s["span_id"] for s in dump["spans"]}
    assert len(ids) == len(dump["spans"]), "adopted ids must be re-issued"
    roots = [s for s in worker if s["name"] == "worker_execute"]
    assert roots and roots[0]["parent_id"] == lane[0]["span_id"]
    # Rebased onto the parent clock: inside the lane span's window.
    assert roots[0]["start"] >= lane[0]["start"] - 1e-6


def test_adopt_rebases_foreign_clocks():
    tracer = Tracer()
    trace = tracer.begin("parent")
    parent = trace.start_span("lane", category="service")
    time.sleep(0.01)
    # A foreign dump whose times are relative to an unrelated origin.
    dumps = [
        {"span_id": 7, "parent_id": None, "name": "w-root",
         "category": "request", "start": 0.0, "duration": 0.5,
         "sim_seconds": 1.5, "status": "ok", "attrs": {}, "events": []},
        {"span_id": 9, "parent_id": 7, "name": "w-child",
         "category": "phase2", "start": 0.1, "duration": 0.2,
         "sim_seconds": 0.0, "status": "ok", "attrs": {}, "events": []},
    ]
    adopted = trace.adopt(dumps, parent=parent)
    parent.finish()
    tracer.finish(trace)
    assert len(adopted) == 2
    root, child = adopted
    assert root.parent_id == parent.span_id
    assert child.parent_id == root.span_id
    assert root.span_id != 7 and child.span_id != 9
    assert root.attrs["process"] == "worker"
    assert root.start >= parent.start
    assert abs((child.start - root.start) - 0.1) < 1e-9
    assert root.sim_seconds == 1.5


# ----------------------------------------------------------------------
# Completeness: every submission ends in a closed root span.
# ----------------------------------------------------------------------
def test_admission_refusal_closes_the_trace():
    tracer = Tracer()
    with QueryService(workers=1, use_processes=False, max_pending=1,
                      tracer=tracer) as svc:
        session = svc.open_session(
            _video(17), counting_udf("car"), config=FAST())
        query = session.query().topk(3).guarantee(0.9)
        futures, refused = [], 0
        for _ in range(12):
            try:
                futures.append(svc.submit(query))
            except AdmissionError:
                refused += 1
        assert refused > 0, "burst past max_pending=1 must refuse"
        svc.gather(futures, timeout=180)
    traces = tracer.traces()
    assert len(traces) == 12
    statuses = [t.root.status for t in traces]
    assert statuses.count("error:AdmissionError") == refused
    for trace in traces:
        assert trace.finished
        assert all(not s.open for s in trace.spans)


def test_failing_query_closes_the_trace_with_error():
    def boom(frames):
        raise RuntimeError("scoring exploded")

    tracer = Tracer()
    with QueryService(workers=1, use_processes=False,
                      tracer=tracer) as svc:
        session = svc.open_session(
            _video(18),
            ScoringFunction(name="boom", score_frames=boom,
                            cost_key="oracle_infer"),
            config=FAST())
        future = svc.submit(
            session.query().topk(3).guarantee(0.9))
        with pytest.raises(Exception):
            future.result(120)
    trace = tracer.get(future.trace_id)
    assert trace is not None and trace.finished
    assert trace.root.status.startswith("error:")
    assert all(not s.open for s in trace.spans)


# ----------------------------------------------------------------------
# Core span machinery.
# ----------------------------------------------------------------------
def test_span_context_nests_and_records_errors():
    tracer = Tracer()
    with tracer.trace("unit") as trace:
        with span("outer", category="code", layer=1) as outer:
            add_event("ping", value=3)
            with pytest.raises(ValueError):
                with span("inner"):
                    raise ValueError("nope")
        assert outer.attrs["layer"] == 1
    dump = trace.to_dict()
    names = {s["name"]: s for s in dump["spans"]}
    assert names["inner"]["parent_id"] == names["outer"]["span_id"]
    assert names["inner"]["status"] == "error:ValueError"
    assert names["outer"]["status"] == "ok"
    assert names["outer"]["events"][0]["name"] == "ping"
    assert names["outer"]["events"][0]["attrs"] == {"value": 3}


def test_module_span_is_noop_without_an_active_trace():
    assert active_span() is None
    context = span("orphan")
    with context as nothing:
        assert nothing is None
        assert active_span() is None
        add_event("dropped")  # must not raise
    # The shared no-op context is reused (zero allocation steady-state).
    assert span("again") is span("later")


def test_activate_tolerates_none_and_restores():
    with activate(None):
        assert active_span() is None
    tracer = Tracer()
    trace = tracer.begin("manual")
    child = trace.start_span("step", category="code")
    with activate(child):
        assert active_span() is child
    assert active_span() is None
    tracer.finish(trace)
    assert trace.root.status == "ok"
    assert child.status == "unclosed"  # force-closed by finish()


def test_trace_close_open_matches_by_name():
    tracer = Tracer()
    trace = tracer.begin("queued")
    trace.start_span("queue_wait", category="scheduler")
    closed = trace.close_open("queue_wait", picked_by="worker-3")
    assert closed is not None and not closed.open
    assert closed.attrs["picked_by"] == "worker-3"
    assert trace.close_open("queue_wait") is None  # nothing open now
    tracer.finish(trace)


def test_ledger_deltas_are_snapshots_not_charges():
    from repro.oracle import CostModel

    ledger = CostModel()
    tracer = Tracer()
    with tracer.trace("ledger") as trace:
        with span("charged", ledger=ledger):
            ledger.charge("oracle_confirm", 4.0)
        with span("idle", ledger=ledger):
            pass
    spans = {s.name: s for s in trace.spans}
    assert spans["charged"].sim_seconds == pytest.approx(
        ledger.total_seconds())
    assert spans["idle"].sim_seconds == 0.0


def test_tracer_ring_and_summaries():
    tracer = Tracer(ring=2)
    ids = []
    for index in range(3):
        with tracer.trace(f"r{index}") as trace:
            pass
        ids.append(trace.trace_id)
    kept = [t.trace_id for t in tracer.traces()]
    assert kept == ids[1:], "ring must evict the oldest"
    assert tracer.get(ids[0]) is None
    summaries = tracer.summaries(limit=1)
    assert summaries[0]["trace_id"] == ids[-1]
    assert tracer.completed == 3


def test_from_env_disabled_returns_null_tracer(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert Tracer.from_env() is NULL_TRACER
    monkeypatch.setenv("REPRO_TRACE", "0")
    assert Tracer.from_env() is NULL_TRACER
    monkeypatch.setenv("REPRO_TRACE", "1")
    enabled = Tracer.from_env()
    assert isinstance(enabled, Tracer) and enabled.enabled


# ----------------------------------------------------------------------
# Exporters.
# ----------------------------------------------------------------------
def test_chrome_export_is_loadable_and_nested():
    tracer = Tracer()
    with tracer.trace("chrome") as trace:
        with span("parent", category="code"):
            add_event("mark", hit=True)
            with span("child", category="code"):
                pass
    document = chrome_trace(tracer.traces())
    parsed = json.loads(json.dumps(document))
    assert parsed["displayTimeUnit"] == "ms"
    events = parsed["traceEvents"]
    assert events[0]["ph"] == "M"
    complete = {e["name"]: e for e in events if e["ph"] == "X"}
    assert {"chrome", "parent", "child"} <= set(complete)
    child, parent = complete["child"], complete["parent"]
    assert child["ts"] >= parent["ts"]
    assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1
    assert any(e["ph"] == "i" and e["name"] == "mark" for e in events)
    assert trace.trace_id in events[0]["args"]["name"]


def test_jsonl_log_rotates_and_reads_back(tmp_path, monkeypatch):
    # Rotation at 512 bytes, two old files kept: 64 records rotate it
    # several times over, so the oldest file is dropped.
    monkeypatch.setattr(exporters, "MAX_BYTES", 512)
    monkeypatch.setattr(exporters, "BACKUPS", 2)
    path = tmp_path / "trace.jsonl"
    log = JsonlTraceLog(path)
    for index in range(64):
        log.write({"type": "span", "index": index})
    files = log_files(path)
    assert files == [str(path), f"{path}.1", f"{path}.2"]
    assert os.path.getsize(path) <= 512
    records = read_jsonl(files)
    indices = [r["index"] for r in records]
    assert indices == sorted(indices), "oldest-first read order"
    assert indices[0] > 0 and indices[-1] == 63


def test_tracer_writes_spans_and_summary_to_jsonl(tmp_path):
    path = tmp_path / "svc.jsonl"
    tracer = Tracer(jsonl_path=path)
    with tracer.trace("logged"):
        with span("work"):
            pass
    records = read_jsonl([str(path)])
    kinds = [r["type"] for r in records]
    assert kinds == ["span", "span", "trace"]
    assert records[-1]["name"] == "logged"
    rebuilt = chrome_trace([{
        "trace_id": records[-1]["trace_id"],
        "name": records[-1]["name"],
        "spans": [r for r in records if r["type"] == "span"],
    }])
    assert len(rebuilt["traceEvents"]) == 3


def test_phase1_maintenance_spans_say_where_inference_went(tmp_path):
    """One ``block_miss`` span per re-scored block and one
    ``requantize`` span per rebuilt relation, with the work each did;
    ``scripts/trace_report.py`` totals them. Observation only: the
    traced stream answers like its untraced twin."""
    def open_stream():
        stream = Session.open_stream(
            _video(17, frames=420), counting_udf("car"),
            initial_frames=240, window_seconds=6.0, config=FAST())
        live = stream.query().topk(3).guarantee(0.9).subscribe()
        return stream, live

    path = tmp_path / "events.jsonl"
    tracer = Tracer(jsonl_path=path)
    (traced, traced_live), (plain, plain_live) = open_stream(), open_stream()
    retained = traced.phase1().diff_result.num_retained
    with tracer.trace("append"):
        traced_events = [traced.append(60)]
    with tracer.trace("tick"):
        traced_events.append(traced.tick(30))
    plain_events = [plain.append(60), plain.tick(30)]
    assert [r.to_json() for event in traced_events for r in event.reports] \
        == [r.to_json() for event in plain_events for r in event.reports]
    assert traced_live.latest.to_json() == plain_live.latest.to_json()

    spans = {}
    for record in read_jsonl([str(path)]):
        if record["type"] == "span" and record["category"] == "phase1":
            spans.setdefault(record["name"], []).append(record["attrs"])
    grown = traced.phase1().diff_result.num_retained
    # The append re-scored the one (tail) block: all of its rows went
    # through the network, only the new ones were featurized, and every
    # one of those came from the scan's pixels. The tick scored nothing.
    (miss,) = spans["block_miss"]
    assert miss["block"] == 0 and miss["rows"] == grown
    assert grown - retained <= miss["rows_featurized"] < 60 + 30
    assert miss["rows_from_scan"] == miss["rows_featurized"]
    # The append also extended the grid, so its block was requantized
    # whole; the tick reused every row.
    assert spans["requantize"] == [
        {"blocks_requantized": 1, "blocks_reused": 0,
         "rows_requantized": grown, "rows_reused": 0},
        {"blocks_requantized": 0, "blocks_reused": 1,
         "rows_requantized": 0, "rows_reused": grown}]

    sys.path.insert(0, os.path.join(
        os.path.dirname(__file__), os.pardir, "scripts"))
    try:
        import trace_report
    finally:
        sys.path.pop(0)
    rows = trace_report.aggregate(trace_report.span_records(
        trace_report.load_records(str(path)), None))
    assert rows[("phase1", "block_miss")]["counters"] == {
        "rows": grown, "rows_featurized": miss["rows_featurized"],
        "rows_from_scan": miss["rows_from_scan"]}
    assert rows[("phase1", "requantize")]["counters"] == {
        "blocks_requantized": 1, "blocks_reused": 1,
        "rows_requantized": grown, "rows_reused": grown}
    assert f"rows={grown} " in trace_report.render(rows)


# ----------------------------------------------------------------------
# Service + gateway surfaces.
# ----------------------------------------------------------------------
def test_service_stats_embed_recent_traces():
    tracer = Tracer()
    with QueryService(workers=1, use_processes=False,
                      tracer=tracer) as svc:
        session = svc.open_session(
            _video(19), counting_udf("car"), config=FAST())
        svc.submit(session.query().topk(3).guarantee(0.9)).result(120)
        stats = svc.stats()
    assert len(stats.recent_traces) == 1
    summary = stats.recent_traces[0]
    assert summary["status"] == "ok" and summary["spans"] > 3


def _gateway(tracer, **config_kwargs):
    from repro.gateway import Gateway, GatewayConfig

    service = QueryService(workers=1, use_processes=False, tracer=tracer)
    return Gateway(
        service=service,
        config=GatewayConfig(
            video_kwargs={"num_frames": 240, "seed": 31},
            **config_kwargs),
    )


def test_gateway_serves_traces_and_slow_query_counter():
    gateway = _gateway(Tracer(), slow_query_seconds=0.0)
    try:
        status, body = gateway.handle("POST", "/query", {
            "tenant": "acme", "spec": "count[car]/traffic", "k": 3})
        assert status == 202
        result_id = body["id"]
        deadline = time.time() + 120
        while time.time() < deadline:
            status, result = gateway.handle(
                "GET", f"/result/{result_id}")
            if result["status"] != "pending":
                break
            time.sleep(0.05)
        assert result["status"] == "done"
        assert result["trace_id"].startswith("t")
        assert result["trace"]["status"] == "ok"
        assert result["trace"]["spans"] > 3

        status, dump = gateway.handle("GET", f"/trace/{result_id}")
        assert status == 200
        assert dump["trace_id"] == result["trace_id"]
        assert dump["spans"][0]["name"] == "query"
        # The raw trace id resolves too.
        status, again = gateway.handle(
            "GET", f"/trace/{result['trace_id']}")
        assert status == 200 and again["trace_id"] == dump["trace_id"]
        status, _ = gateway.handle("GET", "/trace/t99999999")
        assert status == 404
        status, _ = gateway.handle("POST", f"/trace/{result_id}")
        assert status == 405

        status, text = gateway.handle("GET", "/metrics")
        assert status == 200
        samples = parse_metrics_text(text)
        slow = samples[("everest_gateway_slow_queries_total",
                        (("tenant", "acme"),))]
        assert slow == 1.0  # threshold 0: every completion counts
    finally:
        gateway.close()


def test_gateway_without_tracing_404s_trace_route():
    gateway = _gateway(NULL_TRACER)
    try:
        status, body = gateway.handle("POST", "/query", {
            "tenant": "acme", "spec": "count[car]/traffic", "k": 3})
        assert status == 202
        result_id = body["id"]
        deadline = time.time() + 120
        while time.time() < deadline:
            status, result = gateway.handle(
                "GET", f"/result/{result_id}")
            if result["status"] != "pending":
                break
            time.sleep(0.05)
        assert result["status"] == "done"
        assert "trace_id" not in result and "trace" not in result
        status, _ = gateway.handle("GET", f"/trace/{result_id}")
        assert status == 404
    finally:
        gateway.close()


# ----------------------------------------------------------------------
# LatencySummary ring regression (the satellite bug fix).
# ----------------------------------------------------------------------
def test_latency_summary_ring_overwrites_oldest():
    summary = LatencySummary()
    values = [float(v) for v in range(1, LATENCY_SAMPLES + 3)]
    for value in values:
        summary.observe(value)
    assert summary.count == LATENCY_SAMPLES + 2
    # The ring holds exactly the last LATENCY_SAMPLES samples: the two
    # newest landed in slots 0 and 1 (the old code skipped slot 0
    # forever, so 1.0 would still be present and the window would go
    # stale).
    samples = summary.samples()
    assert samples[:2] == values[-2:]
    assert sorted(samples) == values[2:]
    # The quantiles describe that window (nearest-rank median).
    assert summary.quantiles()[0.5] == values[1 + LATENCY_SAMPLES // 2]


def test_latency_summary_rejects_empty_window():
    """The window is a constant, never empty, and not settable."""
    assert LATENCY_SAMPLES >= 1
    with pytest.raises(TypeError, match="max_samples"):
        LatencySummary(max_samples=0)


def test_latency_summary_full_lap_matches_exact_window():
    summary = LatencySummary()
    values = [float(v) for v in range(1, 3 * LATENCY_SAMPLES + 4)]
    for value in values:
        summary.observe(value)
    assert sorted(summary.samples()) == values[-LATENCY_SAMPLES:]

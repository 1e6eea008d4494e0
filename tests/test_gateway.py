"""Gateway unit and integration tests (DESIGN.md §10).

Covers the components with injectable fake clocks (token buckets,
result TTLs, latency metrics), the transport-free :class:`Gateway`
request flows — including byte-identity of wire-served reports against
direct inline execution, for both session and corpus specs — and the
asyncio HTTP server end to end over real sockets.
"""

from __future__ import annotations

import json
import math
import time
import urllib.error
import urllib.request

import pytest

from repro.api.registry import resolve_query_spec
from repro.config import EverestConfig
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    GatewayError,
    QuotaExceededError,
    ResultExpiredError,
    ServiceError,
)
from repro.gateway import (
    Gateway,
    GatewayConfig,
    GatewayMetrics,
    GatewayServer,
    QuotaBook,
    QuotaPolicy,
    ResultStore,
    parse_metrics_text,
)
from repro.gateway.wire import EventRequest, QueryRequest, StreamRequest

VIDEO_KWARGS = {"num_frames": 500, "seed": 5}


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------

class TestErrors:
    def test_quota_error_is_both_gateway_and_admission(self):
        error = QuotaExceededError(
            "too fast", reason="rate", tenant="a", retry_after=0.5)
        assert isinstance(error, AdmissionError)
        assert isinstance(error, GatewayError)
        assert isinstance(error, ServiceError)
        assert (error.reason, error.tenant, error.retry_after) == \
            ("rate", "a", 0.5)

    def test_result_expired_is_a_keyerror_with_clean_str(self):
        error = ResultExpiredError("q01")
        assert isinstance(error, KeyError)
        assert "q01" in str(error)
        assert "\\" not in str(error)  # not KeyError's repr-quoting

    def test_admission_error_defaults(self):
        error = AdmissionError("queue full")
        assert error.reason == "max_pending"
        assert error.tenant is None
        assert error.retry_after is None


# ----------------------------------------------------------------------
# Quotas
# ----------------------------------------------------------------------

class TestQuotas:
    def test_token_bucket_rate_and_burst(self):
        clock = FakeClock()
        book = QuotaBook(
            default=QuotaPolicy(rate=1.0, burst=2), clock=clock)
        book.admit_query("a")
        book.admit_query("a")  # burst of 2
        with pytest.raises(QuotaExceededError) as excinfo:
            book.admit_query("a")
        assert excinfo.value.reason == "rate"
        assert excinfo.value.retry_after == pytest.approx(1.0)
        clock.advance(1.0)  # one token refilled
        book.admit_query("a")
        with pytest.raises(QuotaExceededError):
            book.admit_query("a")

    def test_tenants_are_independent(self):
        clock = FakeClock()
        book = QuotaBook(
            default=QuotaPolicy(rate=1.0, burst=1), clock=clock)
        book.admit_query("a")
        book.admit_query("b")  # b's bucket is full regardless of a's
        with pytest.raises(QuotaExceededError):
            book.admit_query("a")

    def test_max_inflight_and_release(self):
        book = QuotaBook(
            default=QuotaPolicy(max_inflight=2), clock=FakeClock())
        book.admit_query("a")
        book.admit_query("a")
        with pytest.raises(QuotaExceededError) as excinfo:
            book.admit_query("a")
        assert excinfo.value.reason == "max_inflight"
        book.release("a")
        book.admit_query("a")
        assert book.inflight("a") == 2

    def test_append_bucket_defaults_to_query_bucket_values(self):
        clock = FakeClock()
        book = QuotaBook(
            default=QuotaPolicy(rate=2.0, burst=1), clock=clock)
        book.admit_append("a")
        with pytest.raises(QuotaExceededError) as excinfo:
            book.admit_append("a")
        assert excinfo.value.retry_after == pytest.approx(0.5)
        # Appends and queries draw from separate buckets.
        book.admit_query("a")

    def test_overrides_and_unlimited_default(self):
        book = QuotaBook(
            overrides={"tight": QuotaPolicy(max_inflight=1)},
            clock=FakeClock())
        for _ in range(50):
            book.admit_query("anyone")  # unlimited default
        book.admit_query("tight")
        with pytest.raises(QuotaExceededError):
            book.admit_query("tight")

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            QuotaPolicy(rate=0.0)
        with pytest.raises(ConfigurationError):
            QuotaPolicy(burst=0)
        with pytest.raises(ConfigurationError):
            QuotaPolicy(max_inflight=0)
        with pytest.raises(ConfigurationError):
            QuotaPolicy(append_rate=-1.0)


# ----------------------------------------------------------------------
# Result store
# ----------------------------------------------------------------------

class TestResultStore:
    def _report(self):
        session = resolve_query_spec(
            "count[car]/traffic", config=EverestConfig.fast(),
            num_frames=300, seed=3)
        return session.query().topk(3).run()

    def test_lifecycle_pending_done_expired(self):
        clock = FakeClock()
        store = ResultStore(ttl=10.0, clock=clock)
        store.put_pending("q1", "a", "count[car]/traffic")
        assert store.get("q1").status == "pending"
        report = self._report()
        clock.advance(2.0)
        store.complete("q1", report)
        entry = store.get("q1")
        assert entry.status == "done"
        assert entry.latency_seconds == pytest.approx(2.0)
        assert entry.report_json == report.to_json()
        body = entry.body()
        assert body["report_json"] == report.to_json()
        clock.advance(10.1)  # TTL from completion
        with pytest.raises(ResultExpiredError):
            store.get("q1")
        with pytest.raises(KeyError):
            store.get("never-existed")

    def test_pending_entries_do_not_expire(self):
        clock = FakeClock()
        store = ResultStore(ttl=1.0, clock=clock)
        store.put_pending("q1", "a", "s")
        clock.advance(100.0)  # slow query, still running
        assert store.get("q1").status == "pending"

    def test_failed_entries_carry_the_error(self):
        store = ResultStore(clock=FakeClock())
        store.put_pending("q1", "a", "s")
        store.fail("q1", ConfigurationError("bad k"))
        body = store.get("q1").body()
        assert body["status"] == "failed"
        assert body["error"] == "ConfigurationError"
        assert body["message"] == "bad k"

    def test_capacity_evicts_oldest_finished_first(self):
        clock = FakeClock()
        store = ResultStore(ttl=1e9, max_entries=2, clock=clock)
        report = self._report()
        store.put_pending("q1", "a", "s")
        store.complete("q1", report)
        clock.advance(1.0)
        store.put_pending("q2", "a", "s")
        store.complete("q2", report)
        clock.advance(1.0)
        store.put_pending("q3", "a", "s")  # over capacity: q1 evicted
        with pytest.raises(ResultExpiredError):
            store.get("q1")
        assert store.get("q2").status == "done"
        assert store.get("q3").status == "pending"

    def test_capacity_evicts_in_completion_order_not_submission_order(self):
        clock = FakeClock()
        store = ResultStore(ttl=1e9, max_entries=2, clock=clock)
        store.put_pending("q1", "a", "s")
        store.put_pending("q2", "a", "s")
        store.complete("q2", self._report())
        clock.advance(1.0)
        store.fail("q1", ConfigurationError("late"))
        store.put_pending("q3", "a", "s")  # over capacity: q2 evicted
        with pytest.raises(ResultExpiredError):
            store.get("q2")
        assert store.get("q1").status == "failed"
        assert store.get("q3").status == "pending"

    def test_ttl_eviction_stops_at_the_first_fresh_entry(self):
        clock = FakeClock()
        store = ResultStore(ttl=10.0, clock=clock)
        for rid in ("q1", "q2", "q3"):
            store.put_pending(rid, "a", "s")
        store.complete("q3", self._report())
        clock.advance(5.0)
        store.complete("q1", self._report())
        clock.advance(5.5)  # q3 is 10.5 s old, q1 5.5 s, q2 pending
        with pytest.raises(ResultExpiredError):
            store.get("q3")
        assert store.get("q1").status == "done"
        assert store.get("q2").status == "pending"
        assert len(store) == 2 and store.expired_total == 1

    def test_duplicate_ids_are_refused(self):
        store = ResultStore(clock=FakeClock())
        store.put_pending("q1", "a", "s")
        with pytest.raises(GatewayError):
            store.put_pending("q1", "b", "s")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResultStore(ttl=0)
        with pytest.raises(ConfigurationError):
            ResultStore(max_entries=0)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

class TestMetrics:
    def test_render_parse_round_trip(self):
        metrics = GatewayMetrics()
        metrics.count("queries_submitted", "a")
        metrics.count("queries_submitted", "a")
        metrics.count("queries_completed", "a")
        metrics.count("queries_rejected", "b", "rate")
        metrics.count_append("a", 30)
        metrics.observe_latency("query", 0.5)
        metrics.observe_latency("query", 1.5)
        samples = parse_metrics_text(metrics.render())
        assert samples[("everest_gateway_queries_submitted_total",
                        (("tenant", "a"),))] == 2
        assert samples[("everest_gateway_queries_rejected_total",
                        (("tenant", "b"), ("reason", "rate")))] == 1
        assert samples[("everest_gateway_append_frames_total",
                        (("tenant", "a"),))] == 30
        assert samples[("everest_gateway_latency_seconds_count",
                        (("op", "query"),))] == 2
        assert samples[("everest_gateway_latency_seconds",
                        (("op", "query"), ("quantile", "0.5")))] == 0.5

    def test_quantiles_nearest_rank(self):
        metrics = GatewayMetrics()
        for value in range(1, 101):
            metrics.observe_latency("op", float(value))
        samples = parse_metrics_text(metrics.render())
        quantiles = {
            dict(labels)["quantile"]: value
            for (name, labels), value in samples.items()
            if name == "everest_gateway_latency_seconds"}
        assert quantiles == {"0.5": 50.0, "0.95": 95.0, "0.99": 99.0}

    def test_empty_summary_renders_nan(self):
        metrics = GatewayMetrics()
        text = metrics.render()
        samples = parse_metrics_text(text)  # parses clean
        assert not any("latency" in name for name, _ in samples)

    def test_label_escaping_round_trips(self):
        metrics = GatewayMetrics()
        nasty = 'te"na\nt'
        metrics.count("queries_submitted", nasty)
        samples = parse_metrics_text(metrics.render())
        assert samples[("everest_gateway_queries_submitted_total",
                        (("tenant", nasty),))] == 1

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_metrics_text("metric{unclosed 1")
        with pytest.raises(ValueError):
            parse_metrics_text("lonelyname")


# ----------------------------------------------------------------------
# Wire validation
# ----------------------------------------------------------------------

class TestWire:
    def test_query_request_defaults_and_canonicalization(self):
        request = QueryRequest.from_body(
            {"spec": "count[car]@{traffic, dashcam}"})
        assert request.tenant == "default"
        assert request.k == 50
        assert request.guarantee == 0.9
        assert request.spec_string == "count[car]@{traffic,dashcam}"
        assert request.spec.kind == "corpus"

    @pytest.mark.parametrize("body", [
        None,
        [],
        {},
        {"spec": 7},
        {"spec": "garbage"},
        {"spec": "count[car]/traffic", "k": 0},
        {"spec": "count[car]/traffic", "k": True},
        {"spec": "count[car]/traffic", "guarantee": 1.5},
        {"spec": "count[car]/traffic", "window_step": 2.0},
        {"spec": "count[car]/traffic", "surprise": 1},
        {"spec": "count[car]/traffic", "tenant": ""},
        {"spec": "count[car]/traffic", "tenant": 'a"b'},
        {"spec": "count[car]@{a,b}", "window": 5},
    ])
    def test_query_request_rejects_malformed_bodies(self, body):
        with pytest.raises(ConfigurationError):
            QueryRequest.from_body(body)

    def test_stream_and_append_requests(self):
        stream = StreamRequest.from_body({
            "stream": "s1", "spec": "count[car]/traffic",
            "initial_frames": 100, "k": 5, "tenant": "bob"})
        assert stream.stream_id == "s1"
        assert stream.initial_frames == 100
        append = EventRequest.from_body(
            {"stream": "s1", "frames": 30}, "how many to reveal")
        assert (append.stream_id, append.frames) == ("s1", 30)
        with pytest.raises(ConfigurationError):
            StreamRequest.from_body({
                "stream": "s1", "spec": "count[car]@{a,b}",
                "initial_frames": 100})
        with pytest.raises(ConfigurationError):
            EventRequest.from_body({"stream": "s1"}, "how many to reveal")


# ----------------------------------------------------------------------
# Gateway core (in-process, one service shared per module)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def gateway():
    config = GatewayConfig(
        video_kwargs=dict(VIDEO_KWARGS),
        tenant_quotas={
            "limited": QuotaPolicy(max_inflight=1),
        },
    )
    with Gateway(config=config, workers=2, use_processes=False) as gw:
        yield gw


def _poll(gateway, result_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = gateway.handle("GET", f"/result/{result_id}")
        assert status == 200
        if body["status"] != "pending":
            return body
        time.sleep(0.02)
    raise AssertionError(f"result {result_id} never finished")


class TestGatewayFlows:
    def test_query_roundtrip_is_byte_identical(self, gateway):
        status, body = gateway.handle("POST", "/query", {
            "tenant": "alice", "spec": "count[car]/traffic",
            "k": 4, "guarantee": 0.9})
        assert status == 202
        done = _poll(gateway, body["id"])
        assert done["status"] == "done"
        reference = resolve_query_spec(
            "count[car]/traffic", config=EverestConfig.fast(),
            **VIDEO_KWARGS)
        expected = reference.query().topk(4).guarantee(0.9).run().to_json()
        assert done["report_json"] == expected

    def test_corpus_query_over_the_wire(self, gateway):
        status, body = gateway.handle("POST", "/query", {
            "tenant": "alice", "spec": "count[car]@{traffic, dashcam}",
            "k": 3})
        assert status == 202
        assert body["spec"] == "count[car]@{traffic,dashcam}"
        done = _poll(gateway, body["id"])
        assert done["status"] == "done"
        reference = resolve_query_spec(
            "count[car]@{traffic,dashcam}",
            config=EverestConfig.fast(), **VIDEO_KWARGS)
        expected = reference.query().topk(3).guarantee(0.9).run().to_json()
        assert done["report_json"] == expected

    def test_window_clause_flows_through(self, gateway):
        status, body = gateway.handle("POST", "/query", {
            "spec": "count[car]/traffic", "k": 3, "window": 20})
        assert status == 202
        assert _poll(gateway, body["id"])["status"] == "done"

    def test_malformed_body_is_400_with_no_side_effects(self, gateway):
        before = gateway.service.stats().submitted
        status, body = gateway.handle("POST", "/query",
                                      {"spec": "garbage"})
        assert status == 400
        assert body["error"] == "ConfigurationError"
        assert gateway.service.stats().submitted == before

    def test_unknown_result_404_and_routes(self, gateway):
        assert gateway.handle("GET", "/result/qnope")[0] == 404
        assert gateway.handle("GET", "/nope")[0] == 404
        assert gateway.handle("PUT", "/query", {})[0] == 405
        status, body = gateway.handle("GET", "/healthz")
        assert status == 200 and body["ok"] is True

    def test_max_inflight_429_and_release_on_completion(self, gateway):
        status, body = gateway.handle("POST", "/query", {
            "tenant": "limited", "spec": "count[car]/traffic", "k": 3})
        assert status == 202
        status2, body2 = gateway.handle("POST", "/query", {
            "tenant": "limited", "spec": "count[car]/traffic", "k": 5})
        assert status2 == 429
        assert body2["reason"] == "max_inflight"
        _poll(gateway, body["id"])  # completion releases the slot
        status3, _body3 = gateway.handle("POST", "/query", {
            "tenant": "limited", "spec": "count[car]/traffic", "k": 5})
        assert status3 == 202
        # Both ledgers saw the refusal.
        stats = gateway.service.stats()
        assert stats.rejections["limited"]["max_inflight"] >= 1
        samples = parse_metrics_text(gateway.metrics.render())
        assert samples[("everest_gateway_queries_rejected_total",
                        (("tenant", "limited"),
                         ("reason", "max_inflight")))] >= 1

    def test_stream_open_append_and_duplicate(self, gateway):
        status, body = gateway.handle("POST", "/stream", {
            "tenant": "bob", "stream": "flow-a",
            "spec": "count[car]/traffic", "initial_frames": 240,
            "k": 3})
        assert status == 201
        assert body["watermark"] == 240
        assert json.loads(body["report_json"])  # live answer included
        status, body = gateway.handle("POST", "/append", {
            "tenant": "bob", "stream": "flow-a", "frames": 40})
        assert status == 200
        assert body["applied"] is True
        assert body["watermark"] == 280
        assert len(body["reports"]) == 1
        assert json.loads(body["reports"][0])
        status, body = gateway.handle("POST", "/stream", {
            "tenant": "bob", "stream": "flow-a",
            "spec": "count[car]/traffic", "initial_frames": 240})
        assert status == 409
        status, _ = gateway.handle("POST", "/append", {
            "stream": "missing", "frames": 10})
        assert status == 404

    def test_windowed_stream_and_tick_match_the_in_process_session(
            self, gateway):
        from repro import Session

        status, body = gateway.handle("POST", "/stream", {
            "tenant": "bob", "stream": "win-a",
            "spec": "count[car]/traffic", "initial_frames": 240,
            "k": 3, "window": 5.0})
        assert status == 201
        assert (body["window_seconds"], body["window_frames"],
                body["window_lo"]) == (5.0, 150, 90)
        twin = Session.open_stream(
            "traffic", "count[car]", initial_frames=240,
            window_seconds=5.0, config=EverestConfig.fast(),
            **VIDEO_KWARGS)
        live = twin.query().topk(3).guarantee(0.9).subscribe()
        assert body["report_json"] == live.latest.to_json()

        for op, frames in (("append", 40), ("tick", 30)):
            status, body = gateway.handle("POST", f"/{op}", {
                "tenant": "bob", "stream": "win-a", "frames": frames})
            assert status == 200 and body["applied"] is True
            expected = getattr(twin, op)(frames).to_dict()
            assert set(body) == set(expected) | {"applied", "stream"}
            # Physical work depends on what the service-scope caches
            # already hold (other streams over the same footage), so it
            # can only be less than the standalone twin's.
            physical = {key for key in expected if key.startswith("fresh_")}
            for key in physical:
                assert 0 <= body[key] <= expected[key], key
            for key in set(expected) - physical - {
                    "reports", "wall_seconds"}:
                assert body[key] == expected[key], key
            assert body["reports"] == expected["reports"]
        assert (body["horizon"], body["window_lo"], body["ticked_frames"],
                body["watermark"]) == (310, 160, 30, 280)
        assert len(body["reports"]) == 1

    def test_tick_refusals_move_nothing(self, gateway):
        status, _ = gateway.handle("POST", "/tick", {
            "stream": "missing", "frames": 10})
        assert status == 404
        # Expiry only exists where a window does: the gateway asks the
        # session, whose class has a tick() whatever its video.
        status, _ = gateway.handle("POST", "/stream", {
            "tenant": "bob", "stream": "no-window",
            "spec": "count[car]/traffic", "initial_frames": 240, "k": 3})
        assert status == 201
        stream = gateway._streams["no-window"].stream
        status, body = gateway.handle("POST", "/tick", {
            "tenant": "bob", "stream": "no-window", "frames": 10})
        assert status == 400 and body["error"] == "QueryError"
        assert "'window' field" in body["message"]  # the wire-level hint
        assert stream.horizon == stream.watermark == 240
        assert len(stream.segments) == 1

    def test_tick_quota_refusal_leaves_the_horizon_unmoved(self):
        config = GatewayConfig(
            video_kwargs=dict(VIDEO_KWARGS),
            tenant_quotas={"ticky": QuotaPolicy(
                append_rate=1e-6, append_burst=1)})
        with Gateway(config=config, workers=1, use_processes=False) as gw:
            status, _ = gw.handle("POST", "/stream", {
                "tenant": "ticky", "stream": "q",
                "spec": "count[car]/traffic", "initial_frames": 240,
                "k": 3, "window": 5.0})
            assert status == 201
            tick = {"tenant": "ticky", "stream": "q", "frames": 20}
            status, body = gw.handle("POST", "/tick", tick)
            assert status == 200 and body["horizon"] == 260
            status, body = gw.handle("POST", "/tick", tick)
            assert status == 429 and body["reason"] == "rate"
            assert "applied" not in body
            assert gw._streams["q"].stream.horizon == 260

    def test_metrics_and_stats_endpoints(self, gateway):
        status, text = gateway.handle("GET", "/metrics")
        assert status == 200
        samples = parse_metrics_text(text)
        depth = samples[("everest_service_queue_depth", ())]
        assert depth >= 0
        hit_rate = samples[("everest_service_phase1_hit_rate", ())]
        assert 0.0 <= hit_rate <= 1.0 or math.isnan(hit_rate)
        status, stats = gateway.handle("GET", "/stats")
        assert status == 200
        assert stats["workers"] == 2
        assert isinstance(stats["rejections"], dict)

    def test_stats_to_json_round_trips(self, gateway):
        stats = gateway.service.stats()
        decoded = json.loads(json.dumps(stats.as_dict()))
        assert decoded["submitted"] == stats.submitted
        assert decoded["rejections"] == stats.rejections
        assert decoded["phase1_hit_rate"] == stats.phase1_hit_rate
        # One access path: attributes (as_dict() for the wire).
        with pytest.raises(TypeError):
            stats["submitted"]


def test_two_fresh_gateways_serve_byte_identical_stream_events():
    """A standing query's ledger is simulated only, so two fresh
    gateways answer the same windowed schedule byte for byte."""
    def serve():
        config = GatewayConfig(video_kwargs=dict(VIDEO_KWARGS))
        events = []
        with Gateway(config=config, workers=1, use_processes=False) as gw:
            status, body = gw.handle("POST", "/stream", {
                "tenant": "bob", "stream": "twin", "k": 3, "window": 5.0,
                "spec": "count[car]/traffic", "initial_frames": 240})
            assert status == 201
            events.append(body["report_json"])
            for op, frames in (("append", 40), ("tick", 30),
                               ("append", 60), ("tick", 45)):
                status, body = gw.handle("POST", f"/{op}", {
                    "tenant": "bob", "stream": "twin", "frames": frames})
                assert status == 200 and body["applied"] is True
                events.extend(body["reports"])
        return events

    first = serve()
    assert len(first) == 5
    assert serve() == first


def test_unusable_udf_step_is_400_before_any_build():
    """A UDF step that cannot make a grid is the client's error: it is
    refused while the target resolves, before a label is bought."""
    config = GatewayConfig(video_kwargs=dict(VIDEO_KWARGS))
    with Gateway(config=config, workers=1, use_processes=False) as gw:
        status, body = gw.handle("POST", "/query", {
            "spec": "sentiment[0]/vlog", "k": 3})
        assert status == 400
        assert body["error"] == "ConfigurationError"
        assert "quantization_step" in body["message"]
        assert gw.service.stats().builds == 0


def test_hosted_stream_keeps_one_event_of_history():
    """The gateway reads only the latest report and the current event's
    result; a hosted stream holds its subscription's latest outcome
    and nothing per delivered event however long it runs, and answers
    what an in-process twin answers."""
    from repro import Session

    twin = Session.open_stream(
        "traffic", "count[car]", initial_frames=240,
        config=EverestConfig.fast(), **VIDEO_KWARGS)
    twin_live = twin.query().topk(3).guarantee(0.9).subscribe()
    config = GatewayConfig(video_kwargs=dict(VIDEO_KWARGS))
    with Gateway(config=config, workers=1, use_processes=False) as gw:
        status, body = gw.handle("POST", "/stream", {
            "tenant": "bob", "stream": "long", "k": 3,
            "spec": "count[car]/traffic", "initial_frames": 240})
        assert status == 201
        assert body["report_json"] == twin_live.latest.to_json()
        for _ in range(12):
            status, body = gw.handle("POST", "/append", {
                "tenant": "bob", "stream": "long", "frames": 20})
            assert status == 200 and body["applied"] is True
            expected = twin.append(20).to_dict()
            for key in set(expected) - {"wall_seconds"}:
                assert body[key] == expected[key], key
        state = gw._streams["long"]
        assert set(vars(state.live)) == {"query", "detail"}
        assert state.live.latest.to_json() == twin_live.latest.to_json()
        assert len(state.stream.segments) == len(twin.segments) == 13


def test_gateway_owns_or_wraps_service():
    with pytest.raises(ConfigurationError):
        from repro.service import QueryService

        service = QueryService(workers=1, use_processes=False)
        try:
            Gateway(service, workers=3)
        finally:
            service.close()


# ----------------------------------------------------------------------
# HTTP server end to end
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def server(gateway):
    with GatewayServer(gateway) as srv:
        yield srv


def _http(server, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        server.address + path, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {})
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            raw = response.read()
            content_type = response.headers.get("Content-Type", "")
            status = response.status
    except urllib.error.HTTPError as error:
        raw = error.read()
        content_type = error.headers.get("Content-Type", "")
        status = error.code
    if "application/json" in content_type:
        return status, json.loads(raw)
    return status, raw.decode()


class TestHTTPServer:
    def test_query_over_sockets_byte_identical(self, gateway, server):
        status, body = _http(server, "POST", "/query", {
            "tenant": "carol", "spec": "count[car]/traffic", "k": 6})
        assert status == 202
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            status, result = _http(
                server, "GET", f"/result/{body['id']}")
            if result["status"] != "pending":
                break
            time.sleep(0.05)
        assert result["status"] == "done"
        reference = resolve_query_spec(
            "count[car]/traffic", config=EverestConfig.fast(),
            **VIDEO_KWARGS)
        expected = reference.query().topk(6).guarantee(0.9).run().to_json()
        assert result["report_json"] == expected

    def test_http_error_statuses(self, server):
        assert _http(server, "POST", "/query",
                     {"spec": "garbage"})[0] == 400
        assert _http(server, "GET", "/result/qnope")[0] == 404
        assert _http(server, "PUT", "/query", {})[0] == 405
        status, body = _http(server, "GET", "/healthz")
        assert status == 200 and body["ok"] is True

    def test_metrics_exposition_over_http(self, server):
        status, text = _http(server, "GET", "/metrics")
        assert status == 200
        assert isinstance(text, str)
        assert parse_metrics_text(text)

    def test_oversized_body_is_413(self, gateway, server):
        import socket

        # Declare a body over the limit; the server must refuse from
        # the Content-Length alone, before reading a single body byte.
        oversize = gateway.config.max_body_bytes + 1
        head = (f"POST /query HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {oversize}\r\n\r\n").encode()
        with socket.create_connection(
                (server.host, server.port), timeout=30) as sock:
            sock.sendall(head)
            response = sock.recv(65536)
        assert response.split(b"\r\n")[0] == \
            b"HTTP/1.1 413 Payload Too Large"

    def test_invalid_json_body_is_400(self, server):
        request = urllib.request.Request(
            server.address + "/query", data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_keep_alive_serves_multiple_requests(self, server):
        from http.client import HTTPConnection

        conn = HTTPConnection(server.host, server.port, timeout=30)
        try:
            for _ in range(3):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()


# ----------------------------------------------------------------------
# Load generator (plans, transports, reconciliation)
# ----------------------------------------------------------------------

class TestLoadgen:
    def test_zipf_pmf_is_a_decreasing_distribution(self):
        from repro.gateway.loadgen import zipf_pmf

        pmf = zipf_pmf(50, 1.1)
        assert pmf.shape == (50,)
        assert abs(pmf.sum() - 1.0) < 1e-12
        assert all(a >= b for a, b in zip(pmf, pmf[1:]))
        with pytest.raises(ValueError):
            zipf_pmf(0, 1.0)

    def test_build_plan_is_deterministic_and_sorted(self):
        from repro.gateway.loadgen import LoadSpec, build_plan

        spec = LoadSpec(
            specs=("count[car]/traffic", "count[car]/dashcam"),
            num_tenants=30, num_queries=40, duration=1.0,
            streams=(("s0", "count[car]/traffic", 240),),
            appends_per_stream=3, seed=4)
        one, two = build_plan(spec), build_plan(spec)
        assert one == two
        assert len(one) == 40 + 3
        offsets = [op.time_offset for op in one]
        assert offsets == sorted(offsets)
        assert {op.kind for op in one} == {"query", "append"}
        assert all(op.tenant.startswith("t") for op in one)

    def test_tiny_open_loop_run_reconciles_over_http(self):
        """A fresh gateway, a tiny plan, exact /metrics agreement."""
        from repro.gateway.loadgen import (
            HTTPTransport,
            InProcessTransport,
            LoadSpec,
            build_plan,
            reconcile,
            run_plan,
        )

        spec = LoadSpec(
            specs=("count[car]/traffic",),
            num_tenants=20, num_queries=6, duration=0.3,
            streams=(("lg-s0", "count[car]/traffic", 240),),
            appends_per_stream=2, append_frames=20, seed=11)
        plan = build_plan(spec)
        gateway = Gateway(
            config=GatewayConfig(video_kwargs=dict(VIDEO_KWARGS)),
            workers=2, use_processes=False)
        with gateway, GatewayServer(gateway) as fresh_server:
            inproc = InProcessTransport(gateway)
            status, _ = inproc.request("POST", "/stream", {
                "tenant": "t00000", "stream": "lg-s0",
                "spec": "count[car]/traffic",
                "initial_frames": 240, "k": 3})
            assert status == 201

            transport = HTTPTransport(
                fresh_server.host, fresh_server.port, pool_size=4)
            report = run_plan(transport, plan, guns=2,
                              poll_timeout=120.0)
            status, metrics_text = transport.request("GET", "/metrics")
            transport.close()

        assert status == 200
        assert report.fired_ops == report.plan_ops == len(plan)
        assert report.unresolved == 0
        assert report.total(report.failed) == 0
        assert report.appends_errored == 0
        problems = reconcile(report, metrics_text)
        assert not problems, "\n".join(problems)
        # Frame-exact watermark accounting: zero dropped appends.
        applied = report.appends_applied.get("t00000", 0)
        assert report.watermarks.get("lg-s0", 240) == 240 + 20 * applied
        # Every served report is byte-identical to inline execution.
        references = {}
        for result_id, served in report.reports.items():
            _tenant, spec_string, k, guarantee = \
                report.accepted[result_id]
            key = (spec_string, k, guarantee)
            if key not in references:
                references[key] = resolve_query_spec(
                    spec_string, config=EverestConfig.fast(),
                    **VIDEO_KWARGS).query().topk(k).guarantee(guarantee) \
                    .run().to_json()
            assert served == references[key]

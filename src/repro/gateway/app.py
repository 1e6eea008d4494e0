"""The gateway core: transport-free request handling (DESIGN.md §10).

:class:`Gateway` owns the multi-tenant front door over one
:class:`~repro.service.service.QueryService`: per-tenant quotas
(:mod:`repro.gateway.quotas`), the TTL-bounded async result store
(:mod:`repro.gateway.results`), the metrics registry
(:mod:`repro.gateway.metrics`), and a cache of resolved query targets
(sessions / corpora, keyed by canonical spec string) plus hosted
streaming sessions.

Everything is synchronous and transport-free — ``handle(method, path,
body)`` takes a parsed request and returns ``(status, payload)`` — so
the whole surface is testable in-process; :mod:`repro.gateway.http`
is a thin asyncio shell around it.

Routes::

    POST /query    -> 202 {"id": ...}        (or 429/400/503)
    GET  /result/q00000001 -> 200 pending|done|failed (410 expired)
    GET  /trace/q00000001  -> 200 span tree  (404 untraced/rotated)
    POST /stream   -> 201 opened             (409 duplicate id;
                                              'window' opens sliding)
    POST /append   -> 200 applied            (429 refresh refused,
                                              frames still applied)
    POST /tick     -> 200 applied            (windowed streams only:
                                              advance the clock,
                                              expire old frames)
    GET  /metrics  -> 200 Prometheus text
    GET  /stats    -> 200 ServiceStats JSON
    GET  /healthz  -> 200 {"ok": true}

Error contract: quota and admission refusals are HTTP 429 with the
:class:`~repro.errors.AdmissionError` reason code and a
``retry_after`` hint when the bucket can predict one; a closed
service is 503; malformed requests are 400; unknown ids 404; evicted
results 410. A 429 on ``/append`` still reports ``"applied": true``
with the advanced watermark when the frames landed before the refresh
dispatch was refused — the streaming fully-applied/retryable contract
surfaced on the wire.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..api.registry import resolve_query_spec
from ..config import EverestConfig
from ..errors import (
    AdmissionError,
    ConfigurationError,
    GatewayError,
    QueryError,
    QuotaExceededError,
    ResultExpiredError,
    ServiceClosedError,
)
from ..service.service import QueryService
from .metrics import GatewayMetrics
from .quotas import QuotaBook, QuotaPolicy
from .results import ResultStore
from .wire import EventRequest, QueryRequest, StreamRequest

Clock = Callable[[], float]

#: (HTTP status, JSON-able dict or raw text payload).
Response = Tuple[int, object]


@dataclass
class GatewayConfig:
    """Deployment knobs for one :class:`Gateway`."""

    #: Configuration for sessions the gateway opens from specs
    #: (default: :meth:`EverestConfig.fast` keeps the demo responsive).
    session_config: Optional[EverestConfig] = None
    #: Keyword arguments forwarded to every video build
    #: (``num_frames``, ``seed``, ``scale``…).
    video_kwargs: Dict[str, object] = field(default_factory=dict)
    #: Seconds a finished result stays pollable.
    result_ttl: float = 300.0
    max_results: Optional[int] = 100_000
    default_quota: QuotaPolicy = field(
        default_factory=QuotaPolicy.unlimited)
    tenant_quotas: Dict[str, QuotaPolicy] = field(default_factory=dict)
    #: Largest accepted request body (the HTTP layer enforces it).
    max_body_bytes: int = 1 << 20
    #: Wall-clock seconds over which a completed query counts toward
    #: ``everest_gateway_slow_queries_total``; ``None`` disables.
    slow_query_seconds: Optional[float] = 5.0


class Gateway:
    """Multi-tenant HTTP/JSON front door over a query service.

    Pass an existing ``service`` to front one you manage (it stays
    yours to close), or none to let the gateway own a private one
    (``**service_kwargs`` forward to its constructor; ``close()``
    closes it). The ``clock`` (monotonic seconds) drives quotas,
    result TTLs and latency metrics — injectable for deterministic
    tests.
    """

    def __init__(
        self,
        service: Optional[QueryService] = None,
        *,
        config: Optional[GatewayConfig] = None,
        clock: Clock = time.monotonic,
        **service_kwargs,
    ):
        if service is not None and service_kwargs:
            raise ConfigurationError(
                "pass service= or QueryService kwargs, not both")
        self.config = config if config is not None else GatewayConfig()
        self._owns_service = service is None
        self.service = service if service is not None \
            else QueryService(**service_kwargs)
        self._clock = clock
        self.metrics = GatewayMetrics()
        self.quotas = QuotaBook(
            default=self.config.default_quota,
            overrides=self.config.tenant_quotas,
            clock=clock,
        )
        self.results = ResultStore(
            ttl=self.config.result_ttl,
            max_entries=self.config.max_results,
            clock=clock,
        )
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        #: canonical spec string -> Session | VideoCorpus.
        self._targets: Dict[str, object] = {}
        self._streams: Dict[str, "_StreamState"] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def handle(self, method: str, path: str, body=None) -> Response:
        """Dispatch one parsed request; never raises.

        Returns ``(status, payload)`` where the payload is a JSON-able
        dict — except ``GET /metrics``, whose payload is the
        Prometheus text exposition string.
        """
        try:
            return self._route(method.upper(), path, body)
        except BaseException as error:  # noqa: BLE001 - wire boundary
            return self._error_response(error)

    def _route(self, method: str, path: str, body) -> Response:
        if path == "/query" and method == "POST":
            return self.submit_query(body)
        if path.startswith("/result/") and method == "GET":
            return self.get_result(path[len("/result/"):])
        if path.startswith("/trace/") and method == "GET":
            return self.get_trace(path[len("/trace/"):])
        if path == "/stream" and method == "POST":
            return self.open_stream(body)
        if path == "/append" and method == "POST":
            return self.append(body)
        if path == "/tick" and method == "POST":
            return self.tick(body)
        if path == "/metrics" and method == "GET":
            return 200, self.metrics.render(self.service.stats())
        if path == "/stats" and method == "GET":
            return 200, self.service.stats().as_dict()
        if path == "/healthz" and method == "GET":
            return 200, {
                "ok": not self._closed,
                "pending_results": len(self.results.pending_ids()),
                "streams": len(self._streams),
            }
        known = {"/query", "/result/<id>", "/trace/<id>", "/stream",
                 "/append", "/tick", "/metrics", "/stats", "/healthz"}
        prefixed = {"/result/<id>": "/result/", "/trace/<id>": "/trace/"}
        for route in known:
            prefix = prefixed.get(route)
            if path == route or (prefix is not None
                                 and path.startswith(prefix)):
                return 405, {
                    "error": "MethodNotAllowed",
                    "message": f"{method} not supported on {path}",
                }
        return 404, {
            "error": "NotFound",
            "message": f"no route {path}; known: {sorted(known)}",
        }

    @staticmethod
    def _error_response(error: BaseException) -> Response:
        payload = {
            "error": type(error).__name__,
            "message": str(error),
        }
        if isinstance(error, ResultExpiredError):
            return 410, payload
        if isinstance(error, AdmissionError):  # incl. QuotaExceededError
            payload["reason"] = error.reason
            if error.retry_after is not None:
                payload["retry_after"] = error.retry_after
            return 429, payload
        if isinstance(error, ServiceClosedError):
            return 503, payload
        if isinstance(error, (ConfigurationError, QueryError,
                              GatewayError, ValueError)):
            # ValueError covers parameter combinations the engine
            # itself refuses (e.g. a bootstrap segment too small to
            # train on): the client's input, a 400 not a 500.
            return 400, payload
        if isinstance(error, KeyError):
            payload["message"] = str(error.args[0]) if error.args \
                else str(error)
            return 404, payload
        return 500, payload

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def submit_query(self, body) -> Response:
        """``POST /query``: admit, submit, return a poll id (202)."""
        request = QueryRequest.from_body(body)
        tenant = request.tenant
        try:
            self.quotas.admit_query(tenant)
        except QuotaExceededError as error:
            self._count_rejection(tenant, error.reason)
            raise
        # The tenant now holds an inflight slot; every path out of this
        # block either hands it to the completion callback or returns it.
        result_id = None
        try:
            target = self._target(request)
            query = request.build(target)
            result_id = f"q{next(self._seq):08d}"
            self.results.put_pending(
                result_id, tenant, request.spec_string)
            submitted_at = self._clock()
            future = self.service.submit(query, tenant=tenant)
        except BaseException as error:  # noqa: BLE001 - re-raised
            self.quotas.release(tenant)
            if isinstance(error, AdmissionError):
                self.metrics.count(
                    "queries_rejected", tenant, error.reason)
            elif isinstance(error, ServiceClosedError):
                self.metrics.count("queries_rejected", tenant, "closed")
            if result_id is not None:
                self.results.fail(result_id, error)
            raise
        self.metrics.count("queries_submitted", tenant)
        trace_id = getattr(future, "trace_id", None)
        if trace_id is not None:
            # Pending polls already see the trace id; the summary
            # lands below when the query (and its trace) finishes.
            self.results.set_trace(result_id, trace_id)

        def on_done(done_future, *, _id=result_id, _t=tenant,
                    _start=submitted_at, _trace_id=trace_id):
            try:
                report = done_future.result(0)
            except BaseException as error:  # noqa: BLE001 - recorded
                self.results.fail(_id, error)
                self.metrics.count("queries_failed", _t)
            else:
                self.results.complete(_id, report)
                self.metrics.count("queries_completed", _t)
            elapsed = self._clock() - _start
            self.metrics.observe_latency("query", elapsed)
            threshold = self.config.slow_query_seconds
            if threshold is not None and elapsed > threshold:
                self.metrics.count("slow_queries", _t)
            if _trace_id is not None:
                trace = self.service.tracer.get(_trace_id)
                if trace is not None:
                    self.results.set_trace(
                        _id, _trace_id, summary=trace.summary())
            self.quotas.release(_t)

        future.add_done_callback(on_done)
        return 202, {
            "id": result_id,
            "status": "pending",
            "tenant": tenant,
            "spec": request.spec_string,
        }

    def get_result(self, result_id: str) -> Response:
        """``GET /result/<id>``: the entry's current lifecycle state."""
        entry = self.results.get(result_id)
        return 200, entry.body()

    def get_trace(self, ident: str) -> Response:
        """``GET /trace/<id>``: the full span tree for one query.

        Accepts a result id (``q…``, resolved through the result
        store — 410 when that entry expired) or a raw trace id
        (``t…``). 404 when the query was never traced or the trace
        rotated out of the tracer's ring.
        """
        trace_id = ident
        if ident.startswith("q"):
            entry = self.results.get(ident)
            if entry.trace_id is None:
                raise KeyError(
                    f"result {ident!r} has no trace "
                    f"(tracing disabled on the service?)")
            trace_id = entry.trace_id
        trace = self.service.tracer.get(trace_id)
        if trace is None:
            raise KeyError(
                f"no trace {trace_id!r} (tracing disabled, or it "
                f"rotated out of the in-memory ring)")
        return 200, trace.to_dict()

    def _target(self, request: QueryRequest):
        """The cached session/corpus for a canonical spec string.

        One target per spec for the whole gateway — this is what makes
        cross-tenant Phase-1 and score-cache sharing (and scheduler
        batching by ``(session, phase1_key)``) happen for wire
        traffic exactly as for in-process ``service.submit`` calls.
        The key drops any ``?window=`` suffix: a sliding window is a
        query clause, not a different session, so windowed and
        unwindowed traffic over one video share Phase 1.
        """
        cache_key = request.spec.without_window().canonical()
        with self._lock:
            target = self._targets.get(cache_key)
        if target is not None:
            return target
        config = self.config.session_config
        built = resolve_query_spec(
            cache_key,
            config=config if config is not None else EverestConfig.fast(),
            **self.config.video_kwargs,
        )
        with self._lock:
            # Lost a build race: keep the first, drop ours.
            target = self._targets.setdefault(cache_key, built)
        if target is built and request.spec.kind == "video":
            self.service.adopt_session(target)
        return target

    def _count_rejection(self, tenant: str, reason: str) -> None:
        """Land one quota refusal in both ledgers (gateway + service)."""
        self.metrics.count("queries_rejected", tenant, reason)
        self.service.count_rejection(tenant, reason)

    # ------------------------------------------------------------------
    # Streams
    # ------------------------------------------------------------------
    def open_stream(self, body) -> Response:
        """``POST /stream``: host a streaming session + live top-k."""
        request = StreamRequest.from_body(body)
        with self._lock:
            if request.stream_id in self._streams:
                return 409, {
                    "error": "StreamExists",
                    "message": f"stream {request.stream_id!r} is "
                               f"already open",
                }
        config = self.config.session_config
        stream = self.service.open_stream(
            request.spec.video,
            request.spec.udf,
            initial_frames=request.initial_frames,
            tenant=request.tenant,
            config=config if config is not None else EverestConfig.fast(),
            video_kwargs=dict(self.config.video_kwargs),
            window_seconds=request.window_seconds,
        )
        live = stream.query().topk(request.k) \
            .guarantee(request.guarantee).subscribe()
        state = _StreamState(
            stream_id=request.stream_id,
            tenant=request.tenant,
            spec=request.spec_string,
            stream=stream,
            live=live,
        )
        with self._lock:
            raced = self._streams.setdefault(request.stream_id, state)
        if raced is not state:
            return 409, {
                "error": "StreamExists",
                "message": f"stream {request.stream_id!r} is "
                           f"already open",
            }
        payload = {
            "stream": request.stream_id,
            "tenant": request.tenant,
            "spec": request.spec_string,
            "watermark": stream.watermark,
            "report_json": live.latest.to_json(),
        }
        if request.window_seconds is not None:
            payload.update(
                window_seconds=request.window_seconds,
                window_frames=stream.window_frames,
                window_lo=stream.window_lo,
            )
        return 201, payload

    def append(self, body) -> Response:
        """``POST /append``: reveal frames, fully-applied semantics.

        The response always tells the truth about frame application:
        ``applied: true`` with the advanced watermark whenever the
        frames landed — even when the subscription refresh was refused
        downstream (429/503, ``retryable: true``; re-running the
        *refresh* is the retry, not re-sending the frames). A quota
        refusal here happens *before* any frame moves, so that 429 is
        ``applied: false`` and the append itself is the retry.
        """
        return self._stream_event(
            EventRequest.from_body(body, "how many to reveal"),
            "append", "watermark")

    def tick(self, body) -> Response:
        """``POST /tick``: advance a windowed stream's clock (expiry).

        Same fully-applied contract as ``/append``: a quota refusal
        happens before the clock moves (``applied: false``, re-send
        the tick); once the horizon advanced, any downstream refresh
        refusal reports ``applied: true, retryable: true`` and only
        the refresh is the retry. Ticking an unwindowed stream is a
        400 — expiry only exists where a window does.
        """
        return self._stream_event(
            EventRequest.from_body(
                body, "how far to advance the stream clock"),
            "tick", "horizon")

    def _stream_event(self, request, op: str, marker: str) -> Response:
        """Apply one ``/append`` or ``/tick`` to its stream.

        ``op`` names the session method (and the latency series);
        ``marker`` is the progress attribute it advances — the event
        was *applied* exactly when the marker moved.
        """
        with self._lock:
            state = self._streams.get(request.stream_id)
        if state is None:
            raise KeyError(
                f"no open stream {request.stream_id!r}; "
                f"POST /stream first")
        if op == "tick" and state.stream.window_frames is None:
            raise QueryError(
                f"stream {request.stream_id!r} has no sliding window; "
                f"open it with a 'window' field (or '?window=' spec "
                f"suffix) to enable /tick")
        try:
            self.quotas.admit_append(request.tenant)
        except QuotaExceededError as error:
            # Refused before anything moved: the event itself is the
            # retry, and both rejection ledgers record it.
            self.metrics.count(
                "appends_rejected", request.tenant, error.reason)
            self.service.count_rejection(request.tenant, error.reason)
            raise
        started = self._clock()
        with state.lock:
            before = getattr(state.stream, marker)
            try:
                result = getattr(state.stream, op)(request.frames)
            except BaseException as error:  # noqa: BLE001 - wire boundary
                if not getattr(state.stream, marker) > before:
                    # Nothing moved (e.g. the source is exhausted):
                    # an ordinary error response.
                    raise
                # The event landed; only the refresh pass failed.
                # Report the truth: applied, retryable, marker advanced.
                if op == "append":
                    self.metrics.count_append(
                        request.tenant, request.frames)
                self.metrics.count("append_errors", request.tenant)
                # No rejection count here: an AdmissionError from the
                # refresh dispatch was already ledgered by the
                # scheduler it bounced off, and the event itself was
                # applied — only the refresh is retryable.
                status, payload = self._error_response(error)
                payload.update(
                    applied=True,
                    retryable=True,
                    stream=request.stream_id,
                    **{marker: getattr(state.stream, marker)},
                )
                return status, payload
        if op == "append":
            self.metrics.count_append(request.tenant, request.frames)
        self.metrics.observe_latency(op, self._clock() - started)
        payload = result.to_dict()
        payload.update(applied=True, stream=request.stream_id)
        return 200, payload

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the gateway (and its service if it owns one)."""
        self._closed = True
        if self._owns_service:
            self.service.close()

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class _StreamState:
    """One hosted stream: its session, live query and append lock."""

    stream_id: str
    tenant: str
    spec: str
    stream: object
    live: object
    #: Appends are serialized per stream (streaming state is
    #: single-writer); different streams append concurrently.
    lock: threading.Lock = field(default_factory=threading.Lock)

"""Per-query tracing: spans, traces, and the tracer (DESIGN.md §12).

A :class:`Trace` is the record of one query's (or append's) journey
through the stack — admission, queue wait, Phase-1 build/lease, lane
dispatch, cleaning-loop iterations, oracle confirmations — as a tree
of :class:`Span` objects carrying monotonic wall timings *and* the
ledger's simulated seconds. A :class:`Tracer` produces traces,
retains the most recent ones in a ring buffer, and optionally writes
every closed span to a rotated JSONL event log.

Two properties are load-bearing:

* **Zero overhead when off.** Instrumentation sites call the
  module-level :func:`span` / :func:`add_event` helpers; with no
  active trace on the calling thread they return a shared no-op
  context manager / return immediately — no allocation, no lock.
  Layers below the service never hold a tracer reference.
* **Observation only.** Tracing reads ledgers (snapshotting
  ``total_seconds`` around a span), never charges them, and never
  reorders work — reports and ledgers are byte/float-identical with
  tracing on or off (certified by the differential tests and
  ``benchmarks/bench_trace_overhead.py``).

Cross-thread and cross-process propagation is explicit: the service
carries the :class:`Trace` object in its scheduler payloads and
re-activates it on the worker thread (:func:`activate`); the process
lane ships span dumps back from pool workers and re-parents them
under the dispatching span (:meth:`Trace.adopt`).
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "NULL_TRACER",
    "Span",
    "Trace",
    "Tracer",
    "activate",
    "active_span",
    "add_event",
    "span",
]

#: The span the *calling thread* is currently inside (None = tracing
#: off for this thread — the fast path every instrumentation site
#: checks first).
_ACTIVE: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_trace_active_span", default=None)


class Span:
    """One timed operation inside a trace.

    ``start``/``end`` are ``time.perf_counter()`` readings (exported
    relative to the trace origin); ``sim_seconds`` is the simulated
    ledger cost attributed to the span (the delta of the attached
    ledger's ``total_seconds()`` across the span, or whatever the
    instrumentation site assigns). ``events`` are instant annotations
    — e.g. one per oracle-confirm batch, with cache hit/miss counts.
    """

    __slots__ = (
        "trace", "span_id", "parent_id", "name", "category",
        "start", "end", "attrs", "events", "status",
        "sim_seconds", "_ledger", "_ledger_start",
    )

    def __init__(
        self,
        trace: "Trace",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        category: str,
        start: float,
        *,
        ledger=None,
        attrs: Optional[Dict[str, object]] = None,
    ):
        self.trace = trace
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.events: List[Tuple[float, str, Dict[str, object]]] = []
        self.status = "ok"
        self.sim_seconds = 0.0
        self._ledger = ledger
        self._ledger_start = (
            ledger.total_seconds() if ledger is not None else 0.0)

    # ------------------------------------------------------------------
    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> float:
        """Wall seconds (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def set(self, **attrs) -> "Span":
        """Attach attributes (JSON-safe values); returns ``self``."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs) -> None:
        """Record an instant event inside this span."""
        self.events.append((time.perf_counter(), name, attrs))

    def finish(self, *, status: Optional[str] = None) -> "Span":
        """Close the span (idempotent); snapshots the ledger delta."""
        if self.end is not None:
            return self
        self.end = time.perf_counter()
        if status is not None:
            self.status = status
        if self._ledger is not None:
            self.sim_seconds = (
                self._ledger.total_seconds() - self._ledger_start)
            self._ledger = None
        return self

    # ------------------------------------------------------------------
    def to_dict(self, *, origin: Optional[float] = None) -> Dict[str, object]:
        """A JSON-safe dump (times relative to ``origin`` if given)."""
        base = self.trace.origin if origin is None else origin
        end = self.end if self.end is not None else self.start
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start": self.start - base,
            "duration": end - self.start,
            "sim_seconds": self.sim_seconds,
            "status": self.status,
            "attrs": dict(self.attrs),
            "events": [
                {"at": at - base, "name": name, "attrs": dict(attrs)}
                for at, name, attrs in self.events
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else f"{self.duration * 1e3:.2f}ms"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class Trace:
    """One traced request: a root span plus its descendants.

    Spans may be started from the submitting thread, a scheduler
    worker thread, and (via :meth:`adopt`) a pool worker — a lock
    guards the span list; the id counter is trace-local so ids are
    deterministic per trace regardless of scheduling.
    """

    def __init__(self, tracer: "Tracer", trace_id: str, name: str, attrs):
        self.tracer = tracer
        self.trace_id = trace_id
        self.name = name
        #: Wall-clock epoch at begin (for display; perf_counter readings
        #: are meaningless across processes).
        self.started_epoch = time.time()
        #: perf_counter origin every exported time is relative to.
        self.origin = time.perf_counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: List[Span] = []
        self.finished = False
        self.root = self.start_span(
            name, category="request", parent=None, attrs=attrs)
        self.root.start = self.origin

    # ------------------------------------------------------------------
    def start_span(
        self,
        name: str,
        *,
        category: str = "code",
        parent: Optional[Span] = None,
        ledger=None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Begin a span (explicit lifecycle; see also :func:`span`).

        ``parent=None`` parents under the root — except for the very
        first span, which *is* the root.
        """
        with self._lock:
            span_id = next(self._ids)
            parent_id = None
            if self.spans:  # the root exists; default-parent under it
                parent_id = (parent or self.root).span_id
            new = Span(
                self, span_id, parent_id, name, category,
                time.perf_counter(), ledger=ledger, attrs=attrs)
            self.spans.append(new)
        return new

    def find_open(self, name: str) -> Optional[Span]:
        """The most recent still-open span with this name, if any."""
        with self._lock:
            for candidate in reversed(self.spans):
                if candidate.name == name and candidate.open:
                    return candidate
        return None

    def close_open(self, name: str, **attrs) -> Optional[Span]:
        """Finish the most recent open span with this name (by name —
        the cross-thread handoff used for ``queue_wait``)."""
        found = self.find_open(name)
        if found is not None:
            found.set(**attrs).finish()
        return found

    def adopt(
        self,
        dumps: Sequence[Dict[str, object]],
        *,
        parent: Span,
        process: str = "worker",
    ) -> List[Span]:
        """Re-parent span dumps recorded in another process.

        ``dumps`` is a list of ``Span.to_dict()`` records whose times
        are relative to their own (foreign) root. They are rebased so
        the foreign root aligns with ``parent``'s start, re-identified
        from this trace's counter, and attached under ``parent`` —
        worker clocks are unrelated to ours, so alignment (not
        absolute time) is the only meaningful mapping.
        """
        if not dumps:
            return []
        base = parent.start
        id_map: Dict[int, int] = {}
        adopted: List[Span] = []
        with self._lock:
            for dump in dumps:
                span_id = next(self._ids)
                id_map[int(dump["span_id"])] = span_id
                old_parent = dump.get("parent_id")
                parent_id = (
                    id_map.get(int(old_parent))
                    if old_parent is not None else None)
                new = Span(
                    self, span_id,
                    parent_id if parent_id is not None else parent.span_id,
                    str(dump["name"]), str(dump["category"]),
                    base + float(dump["start"]),
                    attrs=dict(dump.get("attrs") or {}))
                new.end = new.start + float(dump["duration"])
                new.sim_seconds = float(dump.get("sim_seconds", 0.0))
                new.status = str(dump.get("status", "ok"))
                new.attrs.setdefault("process", process)
                new.events = [
                    (base + float(e["at"]), str(e["name"]),
                     dict(e.get("attrs") or {}))
                    for e in dump.get("events") or ()
                ]
                self.spans.append(new)
                adopted.append(new)
        return adopted

    # ------------------------------------------------------------------
    def finish(self, *, status: str = "ok") -> "Trace":
        """Close every open span, the root last (idempotent).

        The completeness guarantee — *every* submitted query yields a
        closed root span, whatever path it died on — rests on this
        being safe to call from any thread at any point.
        """
        if self.finished:
            return self
        with self._lock:
            still_open = [s for s in self.spans if s.open and s is not self.root]
        for open_span in reversed(still_open):
            open_span.finish(
                status=status if status != "ok" else "unclosed")
        self.root.finish(status=status)
        self.finished = True
        return self

    @property
    def duration(self) -> float:
        return self.root.duration

    def to_dict(self) -> Dict[str, object]:
        """The full trace as a JSON-safe dict (spans in start order)."""
        with self._lock:
            spans = list(self.spans)
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "started_epoch": self.started_epoch,
            "duration": self.duration,
            "status": self.root.status,
            "attrs": dict(self.root.attrs),
            "spans": [s.to_dict() for s in spans],
        }

    def summary(self) -> Dict[str, object]:
        """The small dict stats/result payloads embed."""
        with self._lock:
            n_spans = len(self.spans)
            sim = sum(s.sim_seconds for s in self.spans)
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "status": self.root.status,
            "duration_seconds": self.duration,
            "sim_seconds": sim,
            "spans": n_spans,
            "attrs": dict(self.root.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace({self.trace_id!r}, {self.name!r}, "
            f"spans={len(self.spans)}, "
            f"{'finished' if self.finished else 'open'})"
        )


# ----------------------------------------------------------------------
# Module-level instrumentation API (the only thing deep layers touch).
# ----------------------------------------------------------------------


class _NoopSpanContext:
    """Shared do-nothing context manager — the tracing-off fast path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NOOP = _NoopSpanContext()


class _SpanContext:
    """Context manager that opens a child of the active span."""

    __slots__ = ("_parent", "_name", "_category", "_ledger", "_attrs",
                 "_span", "_token")

    def __init__(self, parent, name, category, ledger, attrs):
        self._parent = parent
        self._name = name
        self._category = category
        self._ledger = ledger
        self._attrs = attrs
        self._span = None
        self._token = None

    def __enter__(self) -> Span:
        self._span = self._parent.trace.start_span(
            self._name, category=self._category, parent=self._parent,
            ledger=self._ledger, attrs=self._attrs)
        self._token = _ACTIVE.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        _ACTIVE.reset(self._token)
        self._span.finish(
            status="ok" if exc_type is None
            else f"error:{exc_type.__name__}")
        return False


def span(name: str, *, category: str = "code", ledger=None, **attrs):
    """A context manager for one instrumented operation.

    With no active trace on this thread it returns a shared no-op
    (zero allocation); otherwise it opens a child span of the current
    one, makes it current for the block, and closes it on exit with
    ``status="error:<Type>"`` if the block raised. ``ledger`` (a
    :class:`~repro.oracle.cost.CostModel`) attributes the block's
    simulated-seconds delta to the span.
    """
    parent = _ACTIVE.get()
    if parent is None:
        return _NOOP
    return _SpanContext(parent, name, category, ledger, attrs or None)


def add_event(name: str, **attrs) -> None:
    """Record an instant event on the active span (no-op when off)."""
    current = _ACTIVE.get()
    if current is not None:
        current.event(name, **attrs)


def active_span() -> Optional[Span]:
    """The span the calling thread is currently inside, if any."""
    return _ACTIVE.get()


class activate:
    """Install a span (usually a trace's root) as the thread's current.

    The cross-thread propagation primitive: the scheduler worker
    executing a traced payload wraps the work in
    ``with activate(trace.root):`` so every :func:`span` call below
    lands in the right trace. ``activate(None)`` is a tolerated no-op
    — callers never need to branch on whether tracing is on.
    """

    __slots__ = ("_span", "_token")

    def __init__(self, target: Optional[Span]):
        self._span = target
        self._token = None

    def __enter__(self) -> Optional[Span]:
        if self._span is not None:
            self._token = _ACTIVE.set(self._span)
        return self._span

    def __exit__(self, *exc_info) -> bool:
        if self._token is not None:
            _ACTIVE.reset(self._token)
        return False


# ----------------------------------------------------------------------
# The tracer.
# ----------------------------------------------------------------------


class Tracer:
    """Produces, retains, and exports traces.

    Parameters
    ----------
    ring:
        Completed traces retained in memory (oldest evicted first).
    jsonl_path:
        Optional structured event log: one JSON record per closed
        span plus one per completed trace, rotated as
        :class:`~repro.trace.exporters.JsonlTraceLog` rotates (at 4 MiB,
        three old files kept).
    """

    enabled = True

    def __init__(
        self,
        *,
        ring: int = 256,
        jsonl_path=None,
    ):
        from collections import deque

        from .exporters import JsonlTraceLog

        if ring < 1:
            raise ValueError(f"ring must be >= 1, got {ring}")
        self._lock = threading.Lock()
        self._ring: "deque[Trace]" = deque(maxlen=ring)
        self._ids = itertools.count(1)
        self.log: Optional[JsonlTraceLog] = (
            JsonlTraceLog(jsonl_path) if jsonl_path is not None else None)
        #: Completed traces ever finished (ring evictions included).
        self.completed = 0

    # ------------------------------------------------------------------
    @staticmethod
    def from_env(env: Optional[Dict[str, str]] = None) -> "Tracer":
        """The ambient tracer ``REPRO_TRACE=1`` asks for.

        ``REPRO_TRACE_LOG`` names the JSONL event log path. Anything
        falsy (unset, ``0``, ``false``, ``no``) yields the
        shared :data:`NULL_TRACER`.
        """
        env = os.environ if env is None else env
        flag = str(env.get("REPRO_TRACE", "")).strip().lower()
        if flag in ("", "0", "false", "no"):
            return NULL_TRACER
        log = str(env.get("REPRO_TRACE_LOG", "")).strip()
        return Tracer(jsonl_path=log or None)

    # ------------------------------------------------------------------
    def begin(self, name: str, **attrs) -> Trace:
        """Start a new trace (its root span is open)."""
        trace_id = f"t{next(self._ids):08d}"
        return Trace(self, trace_id, name, attrs)

    def finish(self, trace: Trace, *, status: str = "ok") -> Trace:
        """Close a trace and retain/export it (idempotent)."""
        if trace.finished:
            return trace
        trace.finish(status=status)
        with self._lock:
            self._ring.append(trace)
            self.completed += 1
        if self.log is not None:
            data = trace.to_dict()
            for span_dump in data["spans"]:
                self.log.write({
                    "type": "span",
                    "trace_id": trace.trace_id,
                    **span_dump,
                })
            self.log.write({
                "type": "trace",
                **trace.summary(),
            })
        return trace

    class _TraceContext:
        __slots__ = ("_tracer", "_trace", "_inner")

        def __init__(self, tracer, name, attrs):
            self._tracer = tracer
            self._trace = tracer.begin(name, **attrs)
            self._inner = activate(self._trace.root)

        def __enter__(self) -> Trace:
            self._inner.__enter__()
            return self._trace

        def __exit__(self, exc_type, exc, tb) -> bool:
            self._inner.__exit__(exc_type, exc, tb)
            self._tracer.finish(
                self._trace,
                status="ok" if exc_type is None
                else f"error:{exc_type.__name__}")
            return False

    def trace(self, name: str, **attrs):
        """``with tracer.trace("my-op") as t:`` — begin + activate +
        finish around a block (the manual entry point examples use)."""
        return Tracer._TraceContext(self, name, attrs)

    # ------------------------------------------------------------------
    def traces(self) -> List[Trace]:
        """Retained completed traces, oldest first."""
        with self._lock:
            return list(self._ring)

    def get(self, trace_id: str) -> Optional[Trace]:
        """A retained trace by id (None once evicted / unknown)."""
        with self._lock:
            for trace in self._ring:
                if trace.trace_id == trace_id:
                    return trace
        return None

    def summaries(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Summaries of the most recent traces, newest first."""
        with self._lock:
            recent = list(self._ring)
        recent.reverse()
        if limit is not None:
            recent = recent[:limit]
        return [trace.summary() for trace in recent]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracer(retained={len(self._ring)}, completed={self.completed})"


class NullTracer:
    """The tracing-off tracer: every operation is a cheap no-op.

    ``begin`` returns ``None`` — service code threads that ``None``
    through payloads and every downstream hook (``activate(None)``,
    ``finish(None)``) tolerates it, so there is exactly one code path
    whether tracing is on or off.
    """

    enabled = False
    log = None
    completed = 0

    def begin(self, name: str, **attrs) -> None:
        return None

    def finish(self, trace, *, status: str = "ok") -> None:
        return None

    def trace(self, name: str, **attrs):
        return _NOOP

    def traces(self) -> List[Trace]:
        return []

    def get(self, trace_id: str) -> None:
        return None

    def summaries(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        return []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullTracer()"


#: The shared do-nothing tracer (tracing off).
NULL_TRACER = NullTracer()

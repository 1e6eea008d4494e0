"""TTL-bounded async result store (DESIGN.md §10).

``POST /query`` returns an id immediately; the report lands here when
the scheduler finishes, and clients poll ``GET /result/<id>``. Four
states a poll can observe:

* **pending** — submitted, not finished;
* **done** — the report is here (with the exact ``to_json()`` bytes,
  the byte-identity contract's ground truth);
* **failed** — the query raised; the error class and message are
  preserved;
* **expired** — a finished entry outlived ``ttl`` seconds and was
  evicted: :class:`~repro.errors.ResultExpiredError` (HTTP 410),
  distinct from an id that never existed (:class:`KeyError`, 404).

The TTL clock starts at *completion* (a slow query cannot expire
while still running); ``max_entries`` additionally bounds memory by
evicting the earliest finished entries first. Finished ids queue in
completion order, so both evictions pop from the queue's front and a
request touches only what it evicts. The clock is injectable for
deterministic tests.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..core.result import QueryReport
from ..errors import ConfigurationError, GatewayError, ResultExpiredError

Clock = Callable[[], float]


@dataclass
class ResultEntry:
    """One tracked query: its lifecycle state and payload."""

    result_id: str
    tenant: str
    spec: str
    created_at: float
    status: str = "pending"  # pending | done | failed
    finished_at: Optional[float] = None
    #: Simulated-latency-free wall clock from submit to completion.
    latency_seconds: Optional[float] = None
    #: The exact ``report.to_json()`` bytes, captured at completion —
    #: what the gateway serves and what byte-identity is checked on.
    report_json: Optional[str] = None
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    #: The query's trace id when the service traced it (DESIGN.md §12)
    #: — the key for ``GET /trace/<id>``.
    trace_id: Optional[str] = None
    #: The finished trace's summary dict, captured at completion.
    trace_summary: Optional[Dict[str, object]] = None

    def body(self) -> Dict[str, object]:
        """The wire payload for ``GET /result/<id>``."""
        payload: Dict[str, object] = {
            "id": self.result_id,
            "tenant": self.tenant,
            "spec": self.spec,
            "status": self.status,
        }
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.status == "done":
            payload["latency_seconds"] = self.latency_seconds
            payload["report_json"] = self.report_json
        elif self.status == "failed":
            payload["latency_seconds"] = self.latency_seconds
            payload["error"] = self.error_type
            payload["message"] = self.error_message
        if self.trace_summary is not None and self.status != "pending":
            payload["trace"] = self.trace_summary
        return payload


class ResultStore:
    """Thread-safe id -> :class:`ResultEntry` map with TTL eviction."""

    def __init__(
        self,
        *,
        ttl: float = 300.0,
        max_entries: Optional[int] = 100_000,
        clock: Clock = time.monotonic,
    ):
        if not ttl > 0:
            raise ConfigurationError(f"result ttl must be > 0, got {ttl!r}")
        if max_entries is not None and max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be None or >= 1, got {max_entries!r}")
        self.ttl = float(ttl)
        self.max_entries = max_entries
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: Dict[str, ResultEntry] = {}
        #: Finished ids in completion order: the front is the next to
        #: go, by TTL or by capacity.
        self._finished: "OrderedDict[str, None]" = OrderedDict()
        #: Ids evicted by TTL or capacity — polls answer 410, not 404.
        #: Bounded itself (oldest ids degrade to 404) so a long-lived
        #: gateway's tombstone set cannot grow without limit.
        self._expired: "OrderedDict[str, None]" = OrderedDict()
        self._expired_cap = 10 * (max_entries or 100_000)
        self.expired_total = 0

    # ------------------------------------------------------------------
    def put_pending(self, result_id: str, tenant: str, spec: str) -> None:
        with self._lock:
            if result_id in self._entries:
                raise GatewayError(f"duplicate result id {result_id!r}")
            self._entries[result_id] = ResultEntry(
                result_id=result_id, tenant=tenant, spec=spec,
                created_at=self._clock())
            self._sweep()

    def _finish(self, result_id: str, **updates) -> None:
        with self._lock:
            entry = self._entries.get(result_id)
            if entry is None:  # evicted while running: drop the result
                return
            now = self._clock()
            entry.finished_at = now
            entry.latency_seconds = now - entry.created_at
            for key, value in updates.items():
                setattr(entry, key, value)
            self._finished[result_id] = None

    def complete(self, result_id: str, report: QueryReport) -> None:
        """Record a finished query (captures the canonical bytes)."""
        self._finish(
            result_id, status="done", report_json=report.to_json())

    def set_trace(
        self,
        result_id: str,
        trace_id: Optional[str],
        summary: Optional[Dict[str, object]] = None,
    ) -> None:
        """Attach trace linkage to an entry (no-op when evicted).

        Called twice per traced query: at submit with just the id (so
        pending polls can already point at ``GET /trace/<id>``) and at
        completion with the finished trace's summary.
        """
        with self._lock:
            entry = self._entries.get(result_id)
            if entry is None:
                return
            if trace_id is not None:
                entry.trace_id = trace_id
            if summary is not None:
                entry.trace_summary = summary

    def fail(self, result_id: str, error: BaseException) -> None:
        self._finish(
            result_id, status="failed",
            error_type=type(error).__name__, error_message=str(error))

    # ------------------------------------------------------------------
    def get(self, result_id: str) -> ResultEntry:
        """The entry for an id; raises on unknown or expired ids."""
        with self._lock:
            self._sweep()
            entry = self._entries.get(result_id)
            if entry is None:
                if result_id in self._expired:
                    raise ResultExpiredError(result_id)
                raise KeyError(result_id)
            return entry

    def _sweep(self) -> None:
        """Evict over-TTL and over-capacity entries (lock held).

        The earliest finished entry goes while it is stale or the store
        is over capacity; a pending entry never does."""
        now = self._clock()
        bound = self.max_entries
        while self._finished:
            oldest = next(iter(self._finished))
            if now - self._entries[oldest].finished_at <= self.ttl and (
                    bound is None or len(self._entries) <= bound):
                return
            self._evict(oldest)

    def _evict(self, result_id: str) -> None:
        del self._entries[result_id]
        del self._finished[result_id]
        self._expired[result_id] = None
        while len(self._expired) > self._expired_cap:
            self._expired.popitem(last=False)
        self.expired_total += 1

    # ------------------------------------------------------------------
    def pending_ids(self) -> list:
        with self._lock:
            return [
                rid for rid, entry in self._entries.items()
                if entry.status == "pending"
            ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

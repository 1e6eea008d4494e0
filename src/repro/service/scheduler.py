"""Admission, fairness, and dispatch for the query service.

:class:`FairScheduler` sits between ``QueryService.submit()`` and the
execution backends. It is deliberately generic — it moves opaque
payloads, the service supplies the ``run_batch`` callable that turns
them into results — so its three policies are testable in isolation:

* **Admission control.** At most ``max_pending`` payloads may be
  queued (running work does not count); a submission beyond that
  raises :class:`~repro.errors.AdmissionError` immediately instead of
  queueing without bound. A closed scheduler raises
  :class:`~repro.errors.ServiceClosedError`. Several payloads
  submitted together (:meth:`FairScheduler.submit_all`, a workload
  plan) are admitted whole or refused whole.
* **Per-tenant fairness.** Every tenant accumulates the *oracle
  charge* of its completed work (reported by ``run_batch``, in
  simulated oracle seconds). A free worker always serves the queued
  tenant with the smallest accumulated charge — deficit scheduling on
  the resource the paper actually meters — with FIFO order inside a
  tenant and arrival order breaking ties.
* **Batching.** When a worker picks a job it also drains immediately
  following jobs of the same tenant with the same ``batch_key`` (up
  to ``max_batch``), handing ``run_batch`` the whole list
  (:func:`take_batch`, the one dequeue rule). The process backend
  turns this into one worker-pool round trip per batch instead of one
  per query.

Workers are threads; the heavy lifting inside ``run_batch`` either
releases the GIL (numpy kernels) or is shipped to the process pool by
the backend, so scheduler threads stay cheap.
"""

from __future__ import annotations

import copy
import itertools
import threading
from collections import deque
from concurrent.futures import Future, wait
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import AdmissionError, ServiceClosedError, ServiceError


class QueryFuture(Future):
    """A handle to one submitted query's eventual report.

    A standard-library future: the scheduler worker that finishes the
    job resolves it, and a done-callback (the gateway's completion
    hook, the service's trace closer) runs in that worker — or at once
    in the caller if the job is already done. A callback that raises
    is logged and never reaches the worker. Callbacks must not block:
    they run on the worker that could be serving the next batch.
    """

    def __init__(self, seq: int, tenant: str):
        super().__init__()
        self.seq = seq
        self.tenant = tenant
        #: The request's trace id, when the service traces it.
        self.trace_id: Optional[str] = None
        #: What :meth:`outcome` returns, set before the future resolves.
        self._detail = None

    def cancel(self) -> bool:
        """Never cancels: a queued job cannot be withdrawn, and it
        still resolves this future when it runs."""
        return False

    def result(self, timeout: Optional[float] = None):
        self._wait(timeout)
        return super().result()

    def exception(self, timeout: Optional[float] = None):
        self._wait(timeout)
        return super().exception()

    def outcome(self, timeout: Optional[float] = None):
        """The job's :attr:`JobOutcome.detail` — a service query's
        :class:`~repro.api.executor.ExecutionDetail`, or a corpus
        query's :class:`~repro.corpus.federated.CorpusOutcome` —
        blocking and re-raising like :meth:`result`; a done-callback
        can read it."""
        self.result(timeout)
        return self._detail

    def _wait(self, timeout: Optional[float]) -> None:
        # The builtin TimeoutError: before Python 3.11 the standard
        # library raises its own, which is not one. Waiting first also
        # keeps a query that itself raised TimeoutError from reading as
        # "not done".
        if not wait([self], timeout).done:
            raise TimeoutError(
                f"query {self.seq} (tenant {self.tenant!r}) not done "
                f"after {timeout}s")


@dataclass
class Job:
    """One queued unit of work."""

    seq: int
    tenant: str
    batch_key: object
    payload: object
    future: QueryFuture


@dataclass
class JobOutcome:
    """What ``run_batch`` reports per job, aligned with its input.

    ``charge`` is the oracle cost (simulated seconds) this job added
    to its tenant's fairness account; ``detail`` is what the job's
    :meth:`QueryFuture.outcome` returns.
    """

    value: object = None
    error: Optional[BaseException] = None
    charge: float = 0.0
    detail: object = None


#: The service-supplied executor: payloads in, aligned outcomes out.
RunBatch = Callable[[Sequence[object]], List[JobOutcome]]


def _clone_error(error: BaseException) -> BaseException:
    """A private copy of ``error`` for one future in a failed batch.

    Every future of a failed batch used to share one exception
    *instance*; concurrent ``result()`` re-raises then mutated the
    shared ``__traceback__`` and cross-contaminated the tracebacks
    callers logged. Copies preserve type, ``args`` and attribute state
    (``copy.copy`` round-trips through ``__reduce_ex__``, the same
    path pickling uses) and inherit the original raise site's
    traceback, so each future re-raises independently. Falls back to
    the shared instance if the exception resists copying — worse
    tracebacks beat losing the error.
    """
    try:
        clone = copy.copy(error)
    except Exception:  # pragma: no cover - exotic uncopyable error
        return error
    if type(clone) is not type(error):  # pragma: no cover - odd __copy__
        return error
    clone.__traceback__ = error.__traceback__
    clone.__cause__ = error.__cause__
    clone.__context__ = error.__context__
    clone.__suppress_context__ = error.__suppress_context__
    return clone


def take_batch(queue: Deque[Job], max_batch: int) -> List[Job]:
    """Pop a tenant's next batch: the dequeue rule, stated once.

    Submission order, with the immediately following jobs of the same
    ``batch_key`` (never ``None``) riding along, up to ``max_batch``.
    FIFO inside a tenant is what makes starvation impossible: a job's
    wait is bounded by what was queued before it, whatever arrives
    after. Cross-query reordering happens *before* the queue — a
    :class:`~repro.optimizer.planner.WorkloadPlan` submits same-artifact
    queries adjacently, and adjacency is all this rule needs.
    """
    batch = [queue.popleft()]
    while (queue and len(batch) < max_batch
           and batch[0].batch_key is not None
           and queue[0].batch_key == batch[0].batch_key):
        batch.append(queue.popleft())
    return batch


class FairScheduler:
    """Thread-pool dispatch with admission and tenant fairness."""

    def __init__(
        self,
        run_batch: RunBatch,
        *,
        workers: int = 1,
        max_pending: Optional[int] = None,
        max_batch: int = 8,
    ):
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if max_pending is not None and max_pending < 1:
            raise ServiceError(
                f"max_pending must be None or >= 1, got {max_pending}")
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
        self._run_batch = run_batch
        self.max_pending = max_pending
        self.max_batch = max_batch
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._queues: Dict[str, Deque[Job]] = {}
        self._charged: Dict[str, float] = {}
        self._pending = 0
        self._running = 0
        self._closed = False
        self._seq = itertools.count()
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        #: tenant -> reason -> refused submissions (admission control
        #: and closed-service refusals; the raise carries the same
        #: reason code the counter is keyed by).
        self._rejections: Dict[str, Dict[str, int]] = {}
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-svc-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    def submit(
        self,
        payload,
        *,
        tenant: str = "default",
        batch_key: object = None,
    ) -> QueryFuture:
        """Queue a payload; returns its future. May raise AdmissionError."""
        return self.submit_all(
            [(payload, batch_key, next(self._seq))], tenant=tenant)[0]

    def submit_all(
        self,
        items: Sequence[Tuple[object, object, int]],
        *,
        tenant: str = "default",
    ) -> List[QueryFuture]:
        """Queue ``(payload, batch_key, seq)`` items whole or not at all.

        ``seq`` is the caller's number for the job: its future carries
        it, and it breaks fairness ties between tenants. One lock
        acquisition admits every item, adjacent and in order, or
        refuses them all: on a refusal nothing is queued and one
        rejection is counted, so a caller never holds half a plan.
        """
        with self._lock:
            if self._closed:
                self._count_rejection(tenant, "closed")
                raise ServiceClosedError("scheduler is closed")
            if self.max_pending is not None and \
                    self._pending + len(items) > self.max_pending:
                self._count_rejection(tenant, "max_pending")
                raise AdmissionError(
                    f"{self._pending} queries already pending, "
                    f"{len(items)} more would exceed "
                    f"max_pending={self.max_pending}; retry later",
                    reason="max_pending", tenant=tenant)
            queue = self._queues.setdefault(tenant, deque())
            self._charged.setdefault(tenant, 0.0)
            futures = []
            for payload, batch_key, seq in items:
                future = QueryFuture(seq, tenant)
                queue.append(Job(
                    seq=future.seq, tenant=tenant,
                    batch_key=batch_key, payload=payload, future=future))
                futures.append(future)
            self._pending += len(items)
            self.submitted += len(items)
            self._work_ready.notify(len(items))
            return futures

    def _count_rejection(self, tenant: str, reason: str) -> None:
        """Record one refused submission (caller holds the lock)."""
        self.rejected += 1
        per_tenant = self._rejections.setdefault(tenant, {})
        per_tenant[reason] = per_tenant.get(reason, 0) + 1

    def count_rejection(self, tenant: str, reason: str) -> None:
        """Record a submission refused *before* reaching the scheduler.

        The service counts closed-service refusals here and the
        gateway counts quota refusals (``"rate"``/``"max_inflight"``),
        so one per-tenant rejection ledger covers every backpressure
        layer. Works on a closed scheduler — refusals after close are
        exactly the ones worth counting.
        """
        with self._lock:
            self._count_rejection(tenant, reason)

    def snapshot(self) -> Dict[str, object]:
        """Every counter and per-tenant ledger, read at one instant.

        One lock acquisition for the lot, so the counters of a snapshot
        agree with each other (``completed + failed + pending <=
        submitted``) however many workers are finishing batches. Keys
        are the :class:`~repro.service.service.ServiceStats` fields
        the scheduler owns.
        """
        with self._lock:
            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "rejected": self.rejected,
                "pending": self._pending,
                "tenants": dict(self._charged),
                "rejections": {
                    tenant: dict(reasons)
                    for tenant, reasons in self._rejections.items()
                },
            }

    def charges(self) -> Dict[str, float]:
        """Accumulated fairness charge per tenant (oracle seconds)."""
        return self.snapshot()["tenants"]

    # ------------------------------------------------------------------
    def _next_batch(self) -> Optional[List[Job]]:
        """Pop the fairest next batch (caller holds the lock)."""
        best: Optional[str] = None
        for tenant, queue in self._queues.items():
            if not queue:
                continue
            if best is None:
                best = tenant
                continue
            lhs = (self._charged[tenant], queue[0].seq)
            rhs = (self._charged[best], self._queues[best][0].seq)
            if lhs < rhs:
                best = tenant
        if best is None:
            return None
        batch = take_batch(self._queues[best], self.max_batch)
        self._pending -= len(batch)
        self._running += len(batch)
        return batch

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while True:
                    batch = self._next_batch()
                    if batch is not None:
                        break
                    if self._closed:
                        return
                    self._work_ready.wait()
            self._finish(batch, self._execute(batch))

    def _execute(self, batch: List[Job]) -> List[JobOutcome]:
        try:
            outcomes = self._run_batch([job.payload for job in batch])
        except BaseException as error:  # noqa: BLE001 - forwarded to futures
            return self._spread_error(error, len(batch))
        if len(outcomes) != len(batch):  # pragma: no cover - backend bug
            error = ServiceError(
                f"run_batch returned {len(outcomes)} outcomes "
                f"for {len(batch)} jobs")
            return self._spread_error(error, len(batch))
        return outcomes

    @staticmethod
    def _spread_error(error: BaseException, count: int) -> List[JobOutcome]:
        """Fail a whole batch: the first future gets the original
        exception, every other future gets its own copy (see
        :func:`_clone_error`)."""
        return [
            JobOutcome(error=error if i == 0 else _clone_error(error))
            for i in range(count)
        ]

    def _finish(self, batch: List[Job], outcomes: List[JobOutcome]) -> None:
        with self._lock:
            for job, outcome in zip(batch, outcomes):
                self._charged[job.tenant] = \
                    self._charged.get(job.tenant, 0.0) + outcome.charge
                if outcome.error is not None:
                    self.failed += 1
                else:
                    self.completed += 1
        # Resolve outside the lock (result() callbacks must never be
        # able to deadlock against the scheduler) but BEFORE the batch
        # stops counting as running: drain() returning while futures
        # were still unresolved let a drained caller observe
        # done() == False and the gateway's add_done_callback result
        # capture miss its window.
        for job, outcome in zip(batch, outcomes):
            job.future._detail = outcome.detail
            if outcome.error is not None:
                job.future.set_exception(outcome.error)
            else:
                job.future.set_result(outcome.value)
        with self._lock:
            self._running -= len(batch)
            self._idle.notify_all()

    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until no work is queued or running. True on success."""
        with self._idle:
            return self._idle.wait_for(
                lambda: self._pending == 0 and self._running == 0,
                timeout=timeout)

    def close(self, *, wait: bool = True) -> None:
        """Stop accepting work; queued jobs still run to completion."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._work_ready.notify_all()
        if wait:
            for thread in self._threads:
                thread.join()

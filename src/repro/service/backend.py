"""Execution lanes: where a Phase-1 build and a batch of plans run.

Two lanes, chosen per service (``use_processes``):

* **Inline** — the scheduler's worker thread builds Phase 1 and
  executes Phase 2 itself, the latter through a
  :class:`~repro.api.executor.QueryExecutor` bound to the
  service-scope score cache. Nothing is pickled, which is all there is
  to win on a single usable CPU. Threads overlap only where numpy
  leaves the GIL for long: Phase 2's few large kernels do, Phase-1
  training (~70 small numpy calls a step) does not — two builds on two
  threads measured 1.97x the *serial* wall (DESIGN.md §6), so with
  ``workers > 1`` this lane's cold builds still convoy.
* **Process** — both halves leave the process through the one pool
  protocol (DESIGN.md §6) on a persistent
  :class:`~repro.parallel.pool.PersistentPool`: forked workers, each
  behind its own pipe, which the scheduler thread running the batch
  writes the task into and reads the answer from; no relay thread
  sits between. The single-flight
  builder runs the one build routine in a worker
  (:func:`build_in_pool`) and adopts the entry it returns; the parent
  then ships the session spec as a :class:`SpecHandle`, and a worker
  reconstructs the session once per handle and runs only the cleaning
  loop, confirming through that session's own score cache. What
  makes it a *service* lane is **score-cache warm shipping**: the
  handle carries the artifact group's append-only cache too, and the
  pool sends each worker the cache's tail past what that worker
  holds; the worker merges it into its session's cache before
  executing and returns its *new* revelations, which the parent folds
  back into the shared cache. Scores are deterministic per frame, so
  the merge is idempotent and reports stay bit-identical — only
  physical UDF work moves.

Determinism contract: identical to DESIGN.md §6 — a report is a pure
function of (video, scoring, config, plan), so both lanes produce
byte-identical ``QueryReport.to_json()`` strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ..api.executor import ExecutionDetail, QueryExecutor
from ..api.session import Session
from ..core.phase1 import Phase1Entry, run_phase1
from ..oracle.cache import ScoreCache
from ..parallel.pool import Shipped
from ..trace import Tracer, active_span


@dataclass
class _SessionSpec:
    """Everything a worker needs to reconstruct one session."""

    video: object
    scoring: object
    config: object
    unit_costs: Dict[str, float]
    #: Prebuilt Phase 1 artifacts: one (config, entry) per distinct
    #: plan configuration the spec serves.
    entries: List[Tuple[object, object]]

    # Worker-side state, built on first use and kept for as long as
    # the worker memoizes the spec — the session's own score cache is
    # the worker-local copy of the artifact group's. Never touched in
    # the parent, so never pickled.
    @cached_property
    def session(self) -> Session:
        session = Session(
            self.video, self.scoring,
            config=self.config, unit_costs=self.unit_costs)
        for config, entry in self.entries:
            session.adopt_phase1(entry, config)
        return session

    def merge(self, items) -> None:
        """Take score-cache entries the parent's group cache held."""
        self.session.shared_score_cache.merge(items)


class SpecHandle(Shipped):
    """A session spec, and the group score cache shipped as a log."""

    __slots__ = ("cache",)

    def __init__(self, spec: _SessionSpec, cache: ScoreCache):
        super().__init__(spec)
        self.cache = cache

    def wire(self, held):
        """The spec unless the worker holds it, and the cache's tail
        past the length it held."""
        tail, length = self.cache.since(held or 0)
        return (self.blob if held is None else None), tail, length


def ship_spec(session, entries) -> SpecHandle:
    """Pickle one worker-session spec (video + config + Phase 1)."""
    return SpecHandle(_SessionSpec(
        video=session.video,
        scoring=session.scoring,
        config=session.config,
        unit_costs=session.resolved_unit_costs(),
        entries=list(entries),
    ), session.shared_score_cache)


@dataclass(frozen=True)
class BatchTask:
    """Plans to run against one shipped session spec, in a pool worker."""

    spec: SpecHandle
    plans: Tuple[object, ...]
    #: Record per-plan spans in the worker and ship them back so the
    #: parent can re-parent them under its lane-dispatch span.
    traced: bool = False


@dataclass
class BatchResult:
    """Per-plan execution details plus the worker's new revelations."""

    details: List[ExecutionDetail]
    new_scores: Dict[int, float]
    #: Per-plan lists of ``Span.to_dict()`` dumps (``None`` untraced).
    #: Times are relative to each plan's worker-side root span.
    spans: Optional[List[List[dict]]] = None


def _traced(name: str, fn, *args):
    """``(fn(*args), span dumps)`` under a throwaway worker-side tracer.

    Instrumentation sites below ``fn`` see an active span exactly as
    they would in the inline lane. The dumps are plain dicts for the
    wire; the parent rebases them under a span of its own (worker
    perf_counter epochs are unrelated to the parent's).
    """
    with Tracer(ring=1).trace(name) as trace:
        result = fn(*args)
    return result, list(trace.to_dict()["spans"])


def _build_worker_run(video, scoring, unit_costs, config, traced: bool):
    """Build one Phase-1 entry in a pool worker; ``(entry, spans)``."""
    if traced:
        return _traced(
            "worker_build", run_phase1,
            video, scoring, unit_costs, config)
    return run_phase1(video, scoring, unit_costs, config), None


def build_in_pool(pool, video, scoring, unit_costs, config) -> Phase1Entry:
    """Run the one Phase-1 build routine in a pool worker.

    The entry that comes back is the inline build's field for field,
    but for the networks' ``grads`` (re-packed to zero on unpickle —
    what the next ``zero_grads`` leaves anyway). Under an
    active span the build runs traced and its spans are adopted below
    that span, as a lane-dispatch span adopts Phase 2's.

    A worker dying under the build raises ``pool.call``'s
    :class:`~repro.errors.ServiceError`: nothing was built, so the
    caller may simply try again.
    """
    parent = active_span()
    entry, spans = pool.call(
        _build_worker_run, video, scoring, unit_costs, config,
        parent is not None)
    if parent is not None:
        parent.trace.adopt(spans, parent=parent)
    return entry


def _service_worker_run(task: BatchTask) -> BatchResult:
    """Execute one batch in a pool worker (Phase 2 only)."""
    spec: _SessionSpec = task.spec.resolve()
    executor = QueryExecutor(spec.session)
    details: List[ExecutionDetail] = []
    spans: Optional[List[List[dict]]] = [] if task.traced else None
    new_scores: Dict[int, float] = {}
    for plan in task.plans:
        if spans is not None:
            detail, dumps = _traced(
                "worker_execute", executor.execute_detailed, plan)
            spans.append(dumps)
        else:
            detail = executor.execute_detailed(plan)
        details.append(detail)
        # The plan's cache misses: frames neither the parent sent nor
        # an earlier plan of the batch revealed.
        new_scores.update(executor.last_confirm_oracle.fresh_scores)
    return BatchResult(details=details, new_scores=new_scores, spans=spans)


def run_batch_in_pool(
    pool,
    *,
    spec: SpecHandle,
    plans,
    traced: bool = False,
) -> BatchResult:
    """Ship a batch to the pool; fold revelations back into the cache.

    The worker is sent the spec's score cache past what it holds
    (:meth:`SpecHandle.wire`), so per-batch cost tracks the *delta*,
    not the whole cache, and it re-scores no frame the cache held when
    the batch was sent. The batch's own revelations reach each worker
    with its next batch of the spec.

    A worker dying under the batch raises ``pool.call``'s
    :class:`~repro.errors.ServiceError`: nothing was recorded for the
    batch, so the caller may simply resubmit.
    """
    task = BatchTask(spec=spec, plans=tuple(plans), traced=traced)
    result: BatchResult = pool.call(_service_worker_run, task)
    if result.new_scores:
        spec.cache.merge(result.new_scores.items())
    return result

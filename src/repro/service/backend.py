"""Execution lanes: where a Phase-1 build and a batch of plans run.

Two lanes, chosen per service (``use_processes``):

* **Inline** — the scheduler's worker thread builds Phase 1 and
  executes Phase 2 itself, the latter through a
  :class:`~repro.api.executor.QueryExecutor` bound to the
  service-scope score cache. Nothing is pickled, which is all there is
  to win on a single usable CPU. Threads overlap only where numpy
  leaves the GIL for long: Phase 2's few large kernels do, Phase-1
  training (~70 small numpy calls a step) does not — two builds on two
  threads measured 1.97x the *serial* wall, so with ``workers > 1``
  this lane's cold builds still convoy (ROADMAP 3).
* **Process** — both halves leave the process through the one pool
  protocol (DESIGN.md §6) on a persistent
  :class:`~repro.parallel.pool.PersistentPool`: forked workers, each
  behind its own pipe, which the scheduler thread running the batch
  writes the task into and reads the answer from; no relay thread
  sits between. The single-flight
  builder runs the one build routine in a worker
  (:func:`build_in_pool`) and adopts the entry it returns; the parent
  then ships the session spec as a
  :class:`~repro.parallel.pool.Shipped` handle, and a worker
  reconstructs the session once per handle and runs only the cleaning
  loop, confirming through that session's own score cache. What
  makes it a *service* lane is **score-cache warm shipping**: each
  batch carries the parent's current cache entries for the artifact
  group; the worker merges them into its session's cache before
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


def ship_spec(session, entries) -> Shipped:
    """Pickle one worker-session spec (video + config + Phase 1)."""
    return Shipped(_SessionSpec(
        video=session.video,
        scoring=session.scoring,
        config=session.config,
        unit_costs=session.resolved_unit_costs(),
        entries=list(entries),
    ))


@dataclass(frozen=True)
class BatchTask:
    """Plans to run against one shipped session spec, in a pool worker."""

    spec: Shipped
    plans: Tuple[object, ...]
    #: Parent-side cache entries the worker may not have yet.
    cache_items: Tuple[Tuple[int, float], ...]
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
    what the next ``zero_grads`` leaves anyway) and
    ``TrainingHistory.wall_seconds`` (measured wall time). Under an
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
    cache = spec.session.shared_score_cache
    if task.cache_items:
        cache.merge(task.cache_items)
    before = set(cache.as_dict())
    executor = QueryExecutor(spec.session)
    spans: Optional[List[List[dict]]] = None
    if task.traced:
        details, spans = [], []
        for plan in task.plans:
            detail, dumps = _traced(
                "worker_execute", executor.execute_detailed, plan)
            details.append(detail)
            spans.append(dumps)
    else:
        details = [executor.execute_detailed(plan) for plan in task.plans]
    new_scores = {
        frame: score
        for frame, score in cache.as_dict().items()
        if frame not in before
    }
    return BatchResult(details=details, new_scores=new_scores, spans=spans)


def run_batch_in_pool(
    pool,
    *,
    spec: Shipped,
    plans,
    shared_cache: ScoreCache,
    shipped: Optional[set] = None,
    traced: bool = False,
) -> BatchResult:
    """Ship a batch to the pool; fold revelations back into the cache.

    ``shipped`` is the caller-held set of frame ids already sent for
    this ``spec``: only newer parent-cache entries ship (per-batch
    cost tracks the *delta*, not the whole cache). A batch goes to
    whichever worker is idle (the warmest first), and a worker that
    dies is replaced alone, so a given worker may still miss entries a
    sibling received — harmless, it just re-reveals them physically;
    shipping is a cost optimization, never a correctness input.

    A worker dying under the batch raises ``pool.call``'s
    :class:`~repro.errors.ServiceError`: nothing was recorded for the
    batch, so the caller may simply resubmit.
    """
    snapshot = shared_cache.as_dict()
    if shipped is None:
        items = tuple(snapshot.items())
    else:
        items = tuple(
            (frame, score) for frame, score in snapshot.items()
            if frame not in shipped
        )
        shipped.update(snapshot)
    task = BatchTask(
        spec=spec, plans=tuple(plans), cache_items=items, traced=traced)
    result: BatchResult = pool.call(_service_worker_run, task)
    if result.new_scores:
        shared_cache.merge(result.new_scores.items())
        if shipped is not None:
            # The executing worker holds its own revelations already;
            # siblings will re-reveal on demand (see above).
            shipped.update(result.new_scores)
    return result

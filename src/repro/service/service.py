"""The multi-tenant concurrent query service (DESIGN.md §8).

:class:`QueryService` is the front door for many queries in flight at
once::

    with QueryService(workers=4) as service:
        session = service.open_session("traffic", "count[car]",
                                       num_frames=2_000, seed=1,
                                       config=EverestConfig.fast())
        futures = [
            service.submit(session.query().topk(k).guarantee(0.9),
                           tenant="alice")
            for k in (5, 10, 25)
        ]
        reports = service.gather(futures)

Submissions return :class:`~repro.service.scheduler.QueryFuture`
handles immediately; a :class:`~repro.service.scheduler.FairScheduler`
applies admission control and per-tenant oracle-budget fairness, and
execution lands on either lane of :mod:`repro.service.backend`.
Cross-query optimization comes from the shared
:class:`~repro.service.artifacts.SharedArtifacts` layer: single-flight
Phase-1 builds, a bounded per-group score cache that turns one query's
cleaned tuples into every later query's warm start, and a warm-start
checkpoint tier.

Determinism contract: every submitted plan is normalized to
``deterministic_timing`` (exactly like the sweep runner), after which
service reports are **bit-identical** to plain serial ``Session``
execution — the differential harness certifies it. Ledger semantics
are per query: each report's Phase 2 charges land in their own ledger,
:meth:`merged_cost` adds each distinct Phase-1 ledger exactly once.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..api.executor import ExecutionDetail, QueryExecutor
from ..api.plan import QueryPlan
from ..api.query import Query
from ..api.session import Session, phase1_key
from ..core.result import QueryReport
from ..errors import QueryError, ServiceClosedError, ServiceError
from ..oracle.cost import CostModel, merge_cost_models
from ..parallel.pool import PersistentPool, available_cpus, resolve_workers
from ..trace import Tracer, activate
from .artifacts import SharedArtifacts, group_key
from .backend import run_batch_in_pool, ship_spec
from .scheduler import FairScheduler, JobOutcome, QueryFuture


@dataclass
class ServiceStats:
    """A typed snapshot of service health counters.

    The export surface behind ``GET /metrics`` and ``GET /stats`` on
    the gateway (DESIGN.md §10): scheduler throughput counters
    (including per-tenant admission rejections, keyed by the
    :class:`~repro.errors.AdmissionError` reason code), shared-artifact
    cache effectiveness, and per-tenant fairness charges. Mapping-style
    ``stats["builds"]`` access is kept for existing callers.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    #: Refused submissions (admission control / closed service).
    rejected: int = 0
    pending: int = 0
    workers: int = 0
    use_processes: bool = False
    # Shared-artifact layer (ArtifactStats plus registry sizes).
    builds: int = 0
    hits: int = 0
    single_flight_waits: int = 0
    warm_hits: int = 0
    warm_writes: int = 0
    evictions: int = 0
    resident_entries: int = 0
    score_cache_groups: int = 0
    cached_scores: int = 0
    #: Simulated seconds paid across every Phase-1 build incl. rebuilds.
    build_seconds: float = 0.0
    # Cost-based optimizer (DESIGN.md §11).
    #: The scheduler's ordering policy: ``"fifo"`` or ``"cost"``.
    ordering: str = "fifo"
    #: Queries submitted through a WorkloadPlan (submit_plan).
    planned: int = 0
    #: Completed queries with an estimated-vs-actual calibration pair.
    calibration_observed: int = 0
    #: Sum of predicted Phase-2 ledger seconds over observed queries.
    estimated_seconds: float = 0.0
    #: Sum of actual Phase-2 ledger seconds over the same queries.
    actual_seconds: float = 0.0
    #: Mean |estimated - actual| / actual over observed queries.
    calibration_error: float = 0.0
    #: tenant -> accumulated fairness charge (oracle seconds).
    tenants: Dict[str, float] = field(default_factory=dict)
    #: tenant -> reason code -> refused submissions.
    rejections: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Summaries of the most recently completed traces, newest first
    #: (empty with the no-op tracer). See DESIGN.md §12.
    recent_traces: List[Dict[str, object]] = field(default_factory=list)

    @property
    def phase1_hit_rate(self) -> float:
        """Fraction of Phase-1 leases served from the shared store."""
        served = self.hits + self.builds + self.warm_hits
        if served == 0:
            return 0.0
        return (self.hits + self.warm_hits) / served

    def as_dict(self) -> Dict[str, object]:
        """A JSON-safe dict (nested tenant maps copied)."""
        data = dataclasses.asdict(self)
        data["phase1_hit_rate"] = self.phase1_hit_rate
        return data

    def to_json(self, **dumps_kwargs) -> str:
        """Serialize the snapshot to a JSON string."""
        return json.dumps(self.as_dict(), **dumps_kwargs)

    # -- mapping-style compatibility -----------------------------------
    def __getitem__(self, key: str):
        try:
            return getattr(self, key)
        except AttributeError:
            raise KeyError(key) from None

    def __contains__(self, key: object) -> bool:
        return isinstance(key, str) and hasattr(self, key)

    def get(self, key: str, default=None):
        return getattr(self, key, default)


@dataclass
class QueryOutcome:
    """One completed query: its report, ledger and physical cost."""

    tenant: str
    report: QueryReport
    phase2_cost: CostModel
    #: Physical (cache-miss) confirmations; equals the report's
    #: confirmation count only when nothing was shared.
    fresh_confirm_calls: Optional[int]
    #: Submission order (ties ledger merging to a canonical order).
    seq: int = 0


@dataclass(frozen=True)
class _QueryTask:
    """Scheduler payload for one submitted plan."""

    session: Session
    plan: QueryPlan
    tenant: str
    seq: int
    #: The query's :class:`~repro.trace.Trace` (None when tracing off).
    trace: object = None


@dataclass(frozen=True)
class _StreamTask:
    """Scheduler payload for one streaming append's refresh pass."""

    refresh: object  # zero-arg callable -> (reports, fresh, first error)
    session: object
    trace: object = None


@dataclass(frozen=True)
class _CorpusTask:
    """Scheduler payload for one federated corpus query."""

    query: object  # repro.corpus.query.CorpusQuery
    tenant: str
    seq: int
    trace: object = None


class QueryService:
    """Accepts many concurrent queries and optimizes across them.

    Parameters
    ----------
    workers:
        Concurrent executions (scheduler threads; also the process
        pool's size). Defaults through ``REPRO_WORKERS``.
    use_processes:
        Ship Phase 2 to a persistent process pool. Default: automatic
        — on when more than one worker *and* more than one usable CPU.
    max_pending:
        Admission-control bound on queued (not yet running) queries.
    max_batch:
        Same-artifact queries dispatched as one batch.
    artifact_entries / score_cache_entries:
        LRU bounds for the shared artifact layer.
    warm_dir:
        Optional checkpoint directory for the warm-start tier.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        use_processes: Optional[bool] = None,
        max_pending: Optional[int] = 256,
        max_batch: int = 8,
        artifact_entries: Optional[int] = None,
        score_cache_entries: Optional[int] = None,
        warm_dir=None,
        ordering: str = "fifo",
        estimator=None,
        tracer=None,
    ):
        if ordering not in ("fifo", "cost"):
            raise ServiceError(
                f"ordering must be 'fifo' or 'cost', got {ordering!r}")
        # Per-query tracing (DESIGN.md §12): defaults through
        # REPRO_TRACE to the shared no-op tracer, which costs nothing.
        self.tracer = tracer if tracer is not None else Tracer.from_env()
        self.workers = resolve_workers(workers)
        if use_processes is None:
            use_processes = self.workers > 1 and available_cpus() > 1
        self.use_processes = bool(use_processes)
        self.ordering = ordering
        self.artifacts = SharedArtifacts(
            max_entries=artifact_entries,
            score_cache_entries=score_cache_entries,
            warm_dir=warm_dir,
        )
        self._pool = PersistentPool(self.workers) \
            if self.use_processes else None
        self._lock = threading.Lock()
        self._submit_seq = itertools.count()
        self._outcomes: List[QueryOutcome] = []
        self._sessions: Dict[int, Session] = {}
        #: (session, phase1_key) -> (shipped session spec, frame ids
        #: already sent to the pool for it — so each batch carries
        #: only the score-cache delta).
        self._remote_specs: Dict[tuple, tuple] = {}
        #: Pool shard-scoring backends, one per submitted corpus.
        self._corpus_backends: Dict[int, object] = {}
        self._closed = False
        self._planned = 0
        # The cost estimator calibrates online from completed queries;
        # with a warm tier configured its history persists alongside
        # the Phase-1 checkpoints (saved on close, loaded on start).
        self._estimator = estimator
        if self._estimator is None and ordering == "cost":
            from ..optimizer import CostEstimator

            path = None
            if warm_dir is not None:
                from pathlib import Path

                path = Path(warm_dir) / "cost_estimator"
            self._estimator = CostEstimator(path=path)
        policy = None
        if ordering == "cost":
            from ..optimizer import CostOrderedPolicy

            policy = CostOrderedPolicy(self._task_cost)
        self._scheduler = FairScheduler(
            self._run_batch,
            workers=self.workers,
            max_pending=max_pending,
            max_batch=max_batch,
            policy=policy,
        )

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def open_session(
        self,
        video,
        scoring,
        *,
        config=None,
        unit_costs=None,
        **video_kwargs,
    ) -> Session:
        """A :class:`Session` wired into the shared artifact layer.

        Accepts objects or registry names like :meth:`Session.open`.
        The session's Phase-1 builds go through the single-flight
        store and its executors confirm through the service-scope
        score cache — including direct ``session.execute(...)`` calls
        that never touch the scheduler.
        """
        self._check_open()
        session = Session.open(
            video, scoring,
            config=config, unit_costs=unit_costs, **video_kwargs)
        return self.adopt_session(session)

    def adopt_session(self, session: Session) -> Session:
        """Bind an existing batch session to the shared artifact layer.

        A live one is refused (:meth:`attach_stream` is its way in):
        swapping its score cache would leave it confirming through one
        cache and labelling through another.
        """
        self._check_open()
        group = group_key(session.video, session.scoring)
        session.bind_service(
            self.artifacts, self.artifacts.score_cache(group))
        with self._lock:
            self._sessions[id(session)] = session
        return session

    def open_stream(
        self,
        video,
        scoring,
        *,
        initial_frames: Optional[int] = None,
        tenant: str = "stream",
        **kwargs,
    ):
        """Open a streaming session whose state the service hosts.

        The session's per-append subscription refreshes dispatch
        through the scheduler (admission + fairness against batch
        tenants), and its score / block-inference caches come from the
        shared artifact layer, so a later stream over the same (video,
        UDF, config) warm-starts instead of re-inferring. Accepts
        objects or registry names like :meth:`Session.open_stream`.
        """
        self._check_open()
        from ..api.registry import resolve_pair

        # Resolved here, not in Session.open_stream: the shared score
        # cache is keyed by the resolved pair.
        video, scoring = resolve_pair(
            video, scoring, **(kwargs.pop("video_kwargs", None) or {}))
        stream = Session.open_stream(
            video, scoring, initial_frames=initial_frames,
            score_cache=self.artifacts.score_cache(
                group_key(video, scoring)),
            **kwargs)
        return self.attach_stream(stream, tenant=tenant)

    def attach_stream(self, stream, *, tenant: str = "stream"):
        """Route a streaming session's refreshes through the scheduler.

        Each ``append()`` submits one refresh pass as a scheduled job
        under ``tenant`` — admission control applies, and the physical
        confirmation work it causes is charged to the tenant's
        fairness account. The pass itself runs in the scheduler's
        worker thread (streaming state is single-process), never on
        the process pool. The shared block-inference cache for the
        stream's artifact is installed so sibling streams reuse proxy
        inference.
        """
        self._check_open()
        if not (isinstance(stream, Session) and stream.live):
            raise QueryError(
                "attach_stream expects a live session; open one "
                "with Session.open_stream(...) or service.open_stream")
        artifact = (
            group_key(stream.video, stream.scoring),
            phase1_key(stream.config),
        )
        stream.share_inference_cache(self.artifacts.block_cache(artifact))

        def dispatch(refresh):
            return self._enqueue(
                _StreamTask(refresh=refresh, session=stream),
                "stream_refresh", tenant, None,
                video=stream.video.name, udf=stream.scoring.name,
            ).result()

        stream.refresh_dispatcher = dispatch
        with self._lock:
            self._sessions[id(stream)] = stream
        return stream

    # ------------------------------------------------------------------
    # Trace bookkeeping (DESIGN.md §12). Every submitted request gets a
    # root span in submit, an open "admission" span across the
    # scheduler handoff, an open "queue_wait" span closed when a worker
    # picks the job up, and a done-callback that finishes the trace —
    # so even refused, crashed, or abandoned queries yield a closed
    # root span. All of it no-ops (trace is None) with the null tracer.
    # ------------------------------------------------------------------
    def _enqueue(
        self, task, name: str, tenant: str, batch_key, **attrs
    ) -> QueryFuture:
        """Hand ``task`` to the scheduler under a new ``name`` trace."""
        tracer = self.tracer
        trace = tracer.begin(name, tenant=tenant, **attrs)
        if trace is None:
            return self._scheduler.submit(
                task, tenant=tenant, batch_key=batch_key)
        task = dataclasses.replace(task, trace=trace)
        admission = trace.start_span("admission", category="scheduler")
        try:
            future = self._scheduler.submit(
                task, tenant=tenant, batch_key=batch_key)
        except BaseException as error:  # noqa: BLE001 - re-raised
            # The scheduler refused the request (admission / closed).
            status = f"error:{type(error).__name__}"
            admission.finish(status=status)
            tracer.finish(trace, status=status)
            raise
        # The request was queued: admission over, queue wait begins.
        admission.finish()
        trace.start_span("queue_wait", category="scheduler")
        future.trace_id = trace.trace_id

        def _finish(done_future: QueryFuture) -> None:
            error = done_future._error
            tracer.finish(
                trace,
                status="ok" if error is None
                else f"error:{type(error).__name__}")

        future.add_done_callback(_finish)
        return future

    @staticmethod
    def _trace_pickup(task, **attrs):
        """Close the task's queue wait, open its execute span (or None)."""
        trace = task.trace
        if trace is None:
            return None
        trace.close_open("queue_wait")
        return trace.start_span("execute", category="service", attrs=attrs)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        query,
        *,
        session: Optional[Session] = None,
        tenant: str = "default",
    ) -> QueryFuture:
        """Queue one query; returns a future for its report.

        ``query`` is a fluent :class:`~repro.api.query.Query` (its
        session is implied) or a compiled
        :class:`~repro.api.plan.QueryPlan` (pass ``session=``). Plans
        are normalized to deterministic timing so results are
        bit-identical to serial execution regardless of scheduling.
        Raises :class:`~repro.errors.AdmissionError` beyond
        ``max_pending`` and :class:`~repro.errors.ServiceClosedError`
        after :meth:`close`; either refusal lands in the per-tenant
        rejection counters :meth:`stats` reports.
        """
        if self._closed:
            self._scheduler.count_rejection(tenant, "closed")
            raise ServiceClosedError("query service is closed")
        from ..corpus.query import CorpusQuery

        if isinstance(query, CorpusQuery):
            return self._submit_corpus(query, tenant=tenant)
        if isinstance(query, Query):
            if session is None:
                session = query.session
            plan = query.plan()
        elif isinstance(query, QueryPlan):
            if session is None:
                raise QueryError(
                    "submitting a compiled QueryPlan needs session=...")
            plan = query
        else:
            raise QueryError(
                f"submit expects a Query or QueryPlan, got {query!r}")
        if not plan.deterministic_timing:
            plan = dataclasses.replace(plan, deterministic_timing=True)
        # Plain batch sessions are adopted on first submission so their
        # Phase-1 builds go single-flight through the shared store and
        # their confirmations hit the group score cache. Streaming
        # sessions keep their own incremental machinery (attach_stream
        # wires them in explicitly).
        if session.artifacts is None and not session.live:
            self.adopt_session(session)
        with self._lock:
            self._sessions.setdefault(id(session), session)
        task = _QueryTask(
            session=session, plan=plan, tenant=tenant,
            seq=next(self._submit_seq))
        return self._enqueue(
            task, "query", tenant, (id(session), phase1_key(plan.config)),
            video=plan.video_name, udf=plan.udf_name,
            k=plan.k, thres=plan.thres)

    def _submit_corpus(self, query, *, tenant: str) -> QueryFuture:
        """Queue one federated corpus query (DESIGN.md §9).

        Member sessions are adopted into the shared artifact layer on
        first submission, so per-shard Phase-1 builds go single-flight
        through the store and shard confirmations hit each member's
        group score cache. The federated Phase-2 loop itself runs on a
        scheduler worker; shard confirmation scoring fans out on the
        service's lane — pool workers when the process lane is up,
        threads otherwise. The lane cannot change a report byte.
        """
        corpus = query.corpus
        for member in corpus.members:
            if not member.streaming and member.session.artifacts is None:
                self.adopt_session(member.session)
        if not query._deterministic_timing:
            query = dataclasses.replace(query, _deterministic_timing=True)
        task = _CorpusTask(
            query=query, tenant=tenant, seq=next(self._submit_seq))
        with self._lock:
            self._sessions.setdefault(id(corpus), corpus)
        return self._enqueue(
            task, "corpus_query", tenant, None,
            shards=len(corpus.members), udf=corpus.scoring.name)

    def _corpus_backend(self, corpus):
        """The shard-scoring backend for this service's lane.

        Streaming members pin the inline backend for the same reason
        plain streaming submissions never ship to the pool: the pool
        memoizes a pickled snapshot of each member's video per worker,
        and a stream's watermark advances between appends — a worker
        would score against a stale (shorter) copy while the inline
        backend reads the live view.
        """
        if self._pool is None or \
                any(member.streaming for member in corpus.members):
            return None  # FederatedTopK builds its own thread backend
        from ..corpus.federated import PoolShardBackend

        with self._lock:
            backend = self._corpus_backends.get(id(corpus))
            if backend is None:
                backend = PoolShardBackend(
                    self._pool,
                    [member.video for member in corpus.members],
                    corpus.scoring,
                )
                self._corpus_backends[id(corpus)] = backend
        return backend

    def _run_corpus(self, task: "_CorpusTask") -> JobOutcome:
        from ..corpus.federated import FederatedTopK

        query = task.query
        exec_span = self._trace_pickup(
            task, lane="process" if self._pool is not None else "inline")
        try:
            with activate(exec_span):
                engine = FederatedTopK(
                    query.corpus,
                    shard_workers=self.workers,
                    backend=self._corpus_backend(query.corpus),
                )
                outcome = engine.execute_detailed(
                    query.plan(),
                    shard_budgets=query._shard_budget_list(),
                )
        except BaseException as error:  # noqa: BLE001 - to the future
            if exec_span is not None:
                exec_span.finish(status=f"error:{type(error).__name__}")
            return JobOutcome(error=error)
        record = QueryOutcome(
            tenant=task.tenant,
            report=outcome.report,
            phase2_cost=outcome.phase2_cost,
            fresh_confirm_calls=outcome.fresh_confirm_calls,
            seq=task.seq,
        )
        with self._lock:
            self._outcomes.append(record)
        if exec_span is not None:
            exec_span.set(
                fresh_confirm_calls=outcome.fresh_confirm_calls,
                sim_seconds_total=outcome.phase2_cost.total_seconds(),
            ).finish()
        return JobOutcome(
            value=outcome.report,
            charge=outcome.phase2_cost.seconds("oracle_confirm"),
        )

    def submit_many(
        self,
        queries: Sequence,
        *,
        session: Optional[Session] = None,
        tenant: str = "default",
    ) -> List[QueryFuture]:
        """Submit a sequence of queries/plans (one future each)."""
        return [
            self.submit(query, session=session, tenant=tenant)
            for query in queries
        ]

    def gather(
        self,
        futures: Sequence[QueryFuture],
        *,
        timeout: Optional[float] = None,
    ) -> List[QueryReport]:
        """Reports for ``futures`` in submission order (blocking)."""
        return [future.result(timeout) for future in futures]

    # ------------------------------------------------------------------
    # Cost-based workload planning (DESIGN.md §11)
    # ------------------------------------------------------------------
    def estimator(self):
        """The service's :class:`~repro.optimizer.estimator.CostEstimator`.

        Created on first use when the service was not constructed with
        one (``ordering="cost"`` constructs it eagerly).
        """
        if self._estimator is None:
            from ..optimizer import CostEstimator

            self._estimator = CostEstimator()
        return self._estimator

    def plan_workload(
        self,
        queries: Sequence,
        *,
        session: Optional[Session] = None,
    ):
        """Plan a set of pending submissions cheapest-first.

        Returns a :class:`~repro.optimizer.planner.WorkloadPlan`:
        execution order, per-query cost predictions and lane choices,
        with same-artifact queries grouped so cache-warming queries
        run before the queries they warm. ``plan.explain()`` renders
        the decisions; :meth:`submit_plan` executes them.
        """
        self._check_open()
        from ..optimizer import WorkloadPlanner

        planner = WorkloadPlanner(self.estimator(), artifacts=self.artifacts)
        return planner.plan(
            queries, session=session, pool_available=self._pool is not None)

    def submit_plan(
        self,
        workload_plan,
        *,
        tenant: str = "default",
    ) -> List[QueryFuture]:
        """Submit a planned workload in its planned order.

        Returns futures aligned with the *original* submission list
        the plan was built from (``futures[i]`` answers ``queries[i]``
        no matter where the planner scheduled it).
        """
        futures: List[Optional[QueryFuture]] = \
            [None] * len(workload_plan.items)
        for item in workload_plan.items:
            futures[item.index] = self.submit(
                item.plan, session=item.session, tenant=tenant)
        with self._lock:
            self._planned += len(workload_plan.items)
        return futures  # type: ignore[return-value]

    def _predict(self, session: Session, plan: QueryPlan):
        """Estimate one task's cost under the current shared state."""
        from .artifacts import artifact_digest

        group = group_key(session.video, session.scoring)
        key = phase1_key(plan.config)
        artifact = (group, key)
        warm = session.phase1_cached(key=key) \
            or self.artifacts.resident(artifact)
        cache = session.shared_score_cache
        coverage = 0.0
        if cache is not None and plan.num_tuples > 0:
            coverage = min(1.0, len(cache) / plan.num_tuples)
        pool_ok = self._pool is not None and not session.live
        return self._estimator.predict(
            plan,
            group=group,
            digest=artifact_digest(artifact),
            warm=warm,
            cache_coverage=coverage,
            pool_available=pool_ok,
        )

    def _task_cost(self, payload) -> float:
        """The scheduler policy's pricing hook (physical seconds).

        Stream refreshes and corpus jobs price as 0.0 — they keep
        plain FIFO semantics within their tenant.
        """
        if not isinstance(payload, _QueryTask) or self._estimator is None:
            return 0.0
        return self._predict(
            payload.session, payload.plan).physical_seconds

    # ------------------------------------------------------------------
    # Execution (called on scheduler worker threads)
    # ------------------------------------------------------------------
    def _run_batch(self, payloads) -> List[JobOutcome]:
        first = payloads[0]
        if isinstance(first, _StreamTask):
            # Stream refreshes are submitted with batch_key=None, so
            # they arrive one per batch.
            return [self._run_stream(task) for task in payloads]
        if isinstance(first, _CorpusTask):
            # Corpus queries likewise arrive one per batch.
            return [self._run_corpus(task) for task in payloads]
        return self._run_queries(list(payloads))

    def _run_stream(self, task: _StreamTask) -> JobOutcome:
        exec_span = self._trace_pickup(task, lane="inline")
        try:
            with activate(exec_span):
                value = task.refresh()
        except BaseException as error:  # noqa: BLE001 - to the future
            if exec_span is not None:
                exec_span.finish(status=f"error:{type(error).__name__}")
            return JobOutcome(error=error)
        confirm_unit = task.session.resolved_unit_costs() \
            .get("oracle_confirm", 0.0)
        # What the pass itself paid — not a diff of the session-wide
        # counter, which concurrent ad-hoc queries on the stream bump.
        fresh = value[1]
        if exec_span is not None:
            exec_span.set(fresh_confirm_calls=fresh).finish()
        return JobOutcome(value=value, charge=fresh * confirm_unit)

    def _run_queries(self, tasks: List[_QueryTask]) -> List[JobOutcome]:
        from .artifacts import artifact_digest

        session = tasks[0].session
        outcomes: List[JobOutcome] = []
        estimator = self._estimator
        exec_spans = [
            self._trace_pickup(task, batch_size=len(tasks))
            for task in tasks
        ]
        # Predict before touching the shared store: the estimator must
        # see the same warm/cold state the policy priced, so the
        # calibration pair reflects the decision actually made.
        predictions = None
        if estimator is not None:
            try:
                predictions = [
                    self._predict(task.session, task.plan)
                    for task in tasks
                ]
            except Exception:  # noqa: BLE001 - prediction is advisory
                predictions = None
        # Phase 1 first: single-flight through the shared store (the
        # batch shares one artifact by construction of batch_key).
        # Each lease runs under its task's execute span, so the build
        # (or wait) lands in the paying query's trace while batchmates
        # record cache hits.
        try:
            entries = []
            for task, exec_span in zip(tasks, exec_spans):
                with activate(exec_span):
                    entries.append(
                        (task.plan.config,
                         session.phase1(task.plan.config)))
        except BaseException as error:  # noqa: BLE001 - to the futures
            for exec_span in exec_spans:
                if exec_span is not None:
                    exec_span.finish(
                        status=f"error:{type(error).__name__}")
            return [JobOutcome(error=error) for _ in tasks]
        group = group_key(session.video, session.scoring)
        if estimator is not None and entries:
            # One artifact per batch by construction of batch_key.
            estimator.observe_build(
                artifact_digest((group, phase1_key(tasks[0].plan.config))),
                entries[0][1].cost_model,
            )

        details: List[Optional[ExecutionDetail]] = []
        errors: List[Optional[BaseException]] = []
        # Streaming sessions always execute inline: the process lane
        # memoizes a pickled snapshot of the session per spec, and a
        # stream's video advances between appends — a worker would
        # answer over a stale watermark while the inline lane answers
        # over the live one. Batch sessions are immutable snapshots, so
        # only they may ship. The estimator can route a batch whose
        # predicted Phase-2 work does not clear the pool's observed
        # overhead back inline (lane never changes report bytes).
        use_pool = self._pool is not None and not session.live
        if use_pool and predictions is not None:
            use_pool = any(p.lane == "process" for p in predictions)
        lane = "process" if use_pool else "inline"
        traced = any(span is not None for span in exec_spans)
        started = time.perf_counter()
        if use_pool:
            lane_spans = [
                None if span is None else task.trace.start_span(
                    "lane_dispatch", category="service",
                    parent=span, attrs={"lane": "process"})
                for task, span in zip(tasks, exec_spans)
            ]
            try:
                result = self._execute_remote(
                    session, [task.plan for task in tasks], entries,
                    traced=traced)
                details = list(result.details)
                errors = [None] * len(details)
                # Re-parent worker-side spans under each query's
                # lane-dispatch span (rebased to the parent clock).
                for task, lane_span, dumps in zip(
                        tasks, lane_spans,
                        result.spans or [None] * len(tasks)):
                    if lane_span is not None and dumps:
                        task.trace.adopt(dumps, parent=lane_span)
            except BaseException as error:  # noqa: BLE001
                details = [None] * len(tasks)
                errors = [error] * len(tasks)
            finally:
                for lane_span in lane_spans:
                    if lane_span is not None:
                        lane_span.finish()
        else:
            executor = QueryExecutor(session)
            for task, exec_span in zip(tasks, exec_spans):
                try:
                    with activate(exec_span):
                        details.append(
                            executor.execute_detailed(task.plan))
                    errors.append(None)
                except BaseException as error:  # noqa: BLE001
                    details.append(None)
                    errors.append(error)
        elapsed = time.perf_counter() - started
        per_query_wall = elapsed / len(tasks) if tasks else 0.0

        for index, (task, detail, error) in enumerate(
                zip(tasks, details, errors)):
            exec_span = exec_spans[index]
            if error is not None or detail is None:
                if exec_span is not None:
                    exec_span.set(lane=lane).finish(
                        status=f"error:{type(error).__name__}"
                        if error is not None else "error:no-result")
                outcomes.append(JobOutcome(
                    error=error if error is not None
                    else ServiceError("query produced no result")))
                continue
            predicted = predictions[index] \
                if predictions is not None else None
            if estimator is not None:
                estimator.observe_query(
                    task.plan,
                    group=group,
                    phase2_cost=detail.phase2_cost,
                    wall_seconds=per_query_wall,
                    lane=lane,
                    predicted=predicted,
                )
            if exec_span is not None:
                # Estimated-vs-actual on the trace root: per-query
                # calibration error becomes inspectable in the export
                # (the estimate exists only under a cost estimator).
                task.trace.root.set(
                    actual_phase2_seconds=(
                        detail.phase2_cost.total_seconds()))
                if predicted is not None:
                    task.trace.root.set(
                        estimated_phase2_seconds=predicted.phase2_seconds,
                        estimated_lane=predicted.lane,
                    )
                exec_span.set(
                    lane=lane,
                    sim_seconds_total=detail.phase2_cost.total_seconds(),
                ).finish()
            outcome = QueryOutcome(
                tenant=task.tenant,
                report=detail.report,
                phase2_cost=detail.phase2_cost,
                fresh_confirm_calls=detail.fresh_confirm_calls,
                seq=task.seq,
            )
            with self._lock:
                self._outcomes.append(outcome)
            outcomes.append(JobOutcome(
                value=detail.report,
                charge=detail.phase2_cost.seconds("oracle_confirm"),
            ))
        return outcomes

    def _execute_remote(self, session, plans, entries, *, traced=False):
        key = (id(session), phase1_key(plans[0].config))
        with self._lock:
            remote = self._remote_specs.get(key)
            if remote is None:
                remote = self._remote_specs[key] = (
                    ship_spec(session, entries), set())
        spec, shipped = remote
        return run_batch_in_pool(
            self._pool,
            spec=spec,
            plans=plans,
            shared_cache=session.shared_score_cache,
            shipped=shipped,
            traced=traced,
        )

    # ------------------------------------------------------------------
    # Accounting and introspection
    # ------------------------------------------------------------------
    def outcomes(self) -> List[QueryOutcome]:
        """Completed query outcomes, in completion order."""
        with self._lock:
            return list(self._outcomes)

    def merged_cost(self) -> CostModel:
        """One service-level ledger: Phase 1 once per key + every query.

        Mirrors :meth:`~repro.parallel.runner.SweepOutcome.merged_cost`:
        per-query Phase 2 ledgers merge key-wise and each distinct
        Phase-1 ledger is added exactly once, however many queries (or
        tenants) shared it. The merge order is canonical — Phase-1
        ledgers by artifact digest, Phase-2 by submission order — so
        the result is bit-identical run to run (float addition is not
        associative) and comparable against a serial reference merged
        the same way.
        """
        with self._lock:
            phase2 = [
                outcome.phase2_cost
                for outcome in sorted(self._outcomes, key=lambda o: o.seq)
            ]
        return merge_cost_models([*self.artifacts.phase1_ledgers(), *phase2])

    def tenant_charges(self) -> Dict[str, float]:
        """Accumulated fairness charge per tenant (oracle seconds)."""
        return self._scheduler.charges()

    def count_rejection(self, tenant: str, reason: str) -> None:
        """Record a submission refused *above* the service.

        The gateway counts its quota refusals (``"rate"`` /
        ``"max_inflight"``) here so :meth:`stats` carries one
        per-tenant rejection ledger across every backpressure layer —
        the reconciliation target for the metrics exporter.
        """
        self._scheduler.count_rejection(tenant, reason)

    def stats(self) -> ServiceStats:
        """A typed snapshot of service health counters.

        Returns a :class:`ServiceStats` (``to_json()``-able, with
        per-tenant admission-rejection counters); mapping-style access
        keeps working for callers written against the old dict.
        """
        snapshot = self.artifacts.snapshot()
        calibration = {}
        if self._estimator is not None:
            cal = self._estimator.calibration()
            calibration = dict(
                calibration_observed=cal.observed,
                estimated_seconds=cal.estimated_seconds,
                actual_seconds=cal.actual_seconds,
                calibration_error=cal.mean_abs_relative_error,
            )
        with self._lock:
            planned = self._planned
        return ServiceStats(
            submitted=self._scheduler.submitted,
            completed=self._scheduler.completed,
            failed=self._scheduler.failed,
            rejected=self._scheduler.rejected,
            pending=self._scheduler.pending(),
            workers=self.workers,
            use_processes=self.use_processes,
            tenants=self.tenant_charges(),
            rejections=self._scheduler.rejections(),
            ordering=self.ordering,
            planned=planned,
            recent_traces=self.tracer.summaries(limit=16),
            **calibration,
            **{key: snapshot[key] for key in (
                "builds", "hits", "single_flight_waits", "warm_hits",
                "warm_writes", "evictions", "resident_entries",
                "score_cache_groups", "cached_scores", "build_seconds")},
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosedError("query service is closed")

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for all accepted work to finish. True on success."""
        return self._scheduler.drain(timeout)

    def close(self) -> None:
        """Stop accepting queries, finish accepted ones, free the pool."""
        if self._closed:
            return
        self._closed = True
        self._scheduler.close(wait=True)
        if self._pool is not None:
            self._pool.shutdown()
        if self._estimator is not None and self._estimator.path is not None:
            try:
                self._estimator.save()
            except Exception:  # noqa: BLE001 - persistence best-effort
                pass
        with self._lock:
            for session in self._sessions.values():
                if getattr(session, "refresh_dispatcher", None) is not None:
                    session.refresh_dispatcher = None

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lane = "processes" if self.use_processes else "threads"
        return (
            f"QueryService(workers={self.workers}, lane={lane}, "
            f"completed={self._scheduler.completed})"
        )

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
Phase-1 builds, an append-only per-group score cache that turns one
query's cleaned tuples into every later query's warm start, and a
warm-start checkpoint tier.

Determinism contract: a report is always a pure function of its
inputs, so service reports are **bit-identical** to plain serial
``Session`` execution — the differential harness certifies it. Ledger semantics
are per query: each report's Phase 2 charges land in their own ledger,
which ``future.outcome()`` returns; one service-level ledger is the
caller's fold of its futures' ledgers, in submission order, after
:meth:`SharedArtifacts.phase1_ledgers`.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..api.executor import ExecutionDetail, QueryExecutor
from ..api.plan import QueryPlan
from ..api.query import Query
from ..api.registry import resolve_pair
from ..api.session import Session, phase1_key
from ..core.result import QueryReport
from ..errors import QueryError, ServiceClosedError
from ..parallel.pool import (
    PersistentPool,
    available_cpus,
    resolve_workers,
    thread_map,
)
from ..trace import Tracer, activate
from .artifacts import SharedArtifacts, group_key
from .backend import run_batch_in_pool, ship_spec
from .scheduler import FairScheduler, JobOutcome, QueryFuture

#: Completed outcomes :meth:`QueryService.outcomes` keeps, newest last
#: (the tracer keeps as many finished traces).
RECENT_OUTCOMES = 256

#: Same-artifact queries dispatched as one batch.
MAX_BATCH = 8


def _metric(slot: int, name: str, help_text: str) -> Dict[str, object]:
    """Field metadata that makes a :class:`ServiceStats` field a
    ``/metrics`` sample (``everest_service_<name>``).

    The counter catalog (DESIGN.md §10): a field names its own metric
    and help text and ``GatewayMetrics`` renders whatever fields carry
    them, so a new exported counter is one field here and nothing
    anywhere else. ``slot`` is its place in the exposition, whose
    order is wire format.
    """
    return {"slot": slot, "metric": f"everest_service_{name}",
            "help": help_text}


@dataclass
class ServiceStats:
    """A typed snapshot of service health counters.

    The export surface behind ``GET /metrics`` and ``GET /stats`` on
    the gateway (DESIGN.md §10): scheduler throughput counters
    (including per-tenant admission rejections, keyed by the
    :class:`~repro.errors.AdmissionError` reason code), shared-artifact
    cache effectiveness, and per-tenant fairness charges.
    """

    submitted: int = field(default=0, metadata=_metric(
        2, "submitted_total", "Scheduler-accepted submissions."))
    completed: int = field(default=0, metadata=_metric(
        3, "completed_total", "Scheduler-completed queries."))
    failed: int = field(default=0, metadata=_metric(
        4, "failed_total", "Scheduler-failed queries."))
    #: Refused submissions (admission control / closed service).
    rejected: int = field(default=0, metadata=_metric(
        5, "rejected_total", "Scheduler/gateway-refused submissions."))
    pending: int = field(default=0, metadata=_metric(
        1, "queue_depth", "Queries queued but not yet running."))
    workers: int = 0
    use_processes: bool = False
    # Shared-artifact layer (ArtifactStats plus registry sizes).
    builds: int = field(default=0, metadata=_metric(
        6, "phase1_builds_total", "Distinct Phase-1 builds paid for."))
    hits: int = field(default=0, metadata=_metric(
        7, "phase1_hits_total",
        "Phase-1 leases served from the shared store."))
    single_flight_waits: int = 0
    warm_hits: int = field(default=0, metadata=_metric(
        8, "phase1_warm_hits_total",
        "Phase-1 leases served from the warm tier."))
    warm_writes: int = 0
    evictions: int = 0
    resident_entries: int = 0
    score_cache_groups: int = 0
    cached_scores: int = field(default=0, metadata=_metric(
        10, "score_cache_entries",
        "Frames resident in shared score caches."))
    #: Simulated seconds paid across every Phase-1 build incl. rebuilds.
    build_seconds: float = field(default=0.0, metadata=_metric(
        11, "phase1_build_seconds",
        "Simulated seconds paid across every Phase-1 build, including "
        "rebuilds of evicted keys."))
    #: Queries submitted through a WorkloadPlan (DESIGN.md §11).
    planned: int = field(default=0, metadata=_metric(
        12, "planned_total",
        "Queries submitted through an optimizer WorkloadPlan."))
    #: tenant -> accumulated fairness charge (oracle seconds); one
    #: sample per tenant.
    tenants: Dict[str, float] = field(default_factory=dict, metadata=_metric(
        13, "tenant_charge_seconds",
        "Accumulated fairness charge per tenant (oracle seconds)."))
    #: tenant -> reason code -> refused submissions.
    rejections: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Summaries of the most recently completed traces, newest first
    #: (empty with the no-op tracer). See DESIGN.md §12.
    recent_traces: List[Dict[str, object]] = field(default_factory=list)
    #: Fraction of Phase-1 leases served from the shared store
    #: (derived from the three counters above it in the exposition).
    phase1_hit_rate: float = field(init=False, metadata=_metric(
        9, "phase1_hit_rate",
        "Share of Phase-1 leases that skipped a build."))

    def __post_init__(self):
        served = self.hits + self.builds + self.warm_hits
        self.phase1_hit_rate = \
            (self.hits + self.warm_hits) / served if served else 0.0

    def as_dict(self) -> Dict[str, object]:
        """A JSON-safe dict (nested tenant maps copied)."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class _Job:
    """The one scheduler payload: ``work`` to run against ``target``.

    Three kinds of work share it — and everything in the service but
    one execute function each: a compiled
    :class:`~repro.api.plan.QueryPlan` on a session, a
    :class:`~repro.api.query.Query` on its corpus, and a
    stream's refresh pass (a zero-argument callable returning
    ``(reports, fresh confirmations, first error)``) on the stream.
    """

    target: object
    work: object
    tenant: str
    #: Submission order, numbered by :meth:`QueryService._enqueue`;
    #: the job's future carries the same number.
    seq: Optional[int] = None
    #: The job's :class:`~repro.trace.Trace` (None when tracing off).
    trace: object = None


class QueryService:
    """Accepts many concurrent queries and optimizes across them.

    Parameters
    ----------
    workers:
        Concurrent executions (scheduler threads; also the process
        pool's size). Defaults through ``REPRO_WORKERS``.
    use_processes:
        Run Phase-1 builds and Phase 2 in a persistent process pool
        (forked workers, each behind its own pipe, each replaced alone
        if it dies).
        Default: automatic — on when more than one worker *and* more
        than one usable CPU.
    max_pending:
        Admission-control bound on queued (not yet running) queries.
    artifact_entries:
        LRU bound on the shared artifact layer's Phase-1 entries.
    warm_dir:
        Optional checkpoint directory for the warm-start tier.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        use_processes: Optional[bool] = None,
        max_pending: Optional[int] = 256,
        artifact_entries: Optional[int] = None,
        warm_dir=None,
        tracer=None,
    ):
        # Per-query tracing (DESIGN.md §12): defaults through
        # REPRO_TRACE to the shared no-op tracer, which costs nothing.
        self.tracer = tracer if tracer is not None else Tracer.from_env()
        self.workers = resolve_workers(workers)
        if use_processes is None:
            use_processes = self.workers > 1 and available_cpus() > 1
        self.use_processes = bool(use_processes)
        self.artifacts = SharedArtifacts(
            max_entries=artifact_entries,
            warm_dir=warm_dir,
        )
        self._pool = PersistentPool(self.workers) \
            if self.use_processes else None
        # Phase-1 builds go where the lane rule sends Phase 2.
        self.artifacts.build_pool = lambda session: \
            None if self._lane(session) == "inline" else self._pool
        self._lock = threading.Lock()
        self._submit_seq = itertools.count()
        self._outcomes = deque(maxlen=RECENT_OUTCOMES)
        #: The specs shipped for a session, dropped with the session:
        #: ``{phase1_key: SpecHandle}``. The service keeps no session
        #: alive — the artifact LRU bounds its memory, not its history.
        self._specs = weakref.WeakKeyDictionary()
        #: Attached streams, for :meth:`close` to detach.
        self._streams = weakref.WeakSet()
        self._closed = False
        self._planned = 0
        self._scheduler = FairScheduler(
            self._run_batch,
            workers=self.workers,
            max_pending=max_pending,
            max_batch=MAX_BATCH,
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
        video, scoring = resolve_pair(
            video, scoring, video_kwargs, call="QueryService.open_session")
        return self.adopt_session(
            Session(video, scoring, config=config, unit_costs=unit_costs))

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
        return session

    def open_stream(
        self,
        video,
        scoring,
        *,
        initial_frames: Optional[int] = None,
        tenant: str = "stream",
        config=None,
        unit_costs=None,
        autosave_path=None,
        window_seconds: Optional[float] = None,
        video_kwargs=None,
    ):
        """Open a streaming session whose state the service hosts.

        The session's per-append subscription refreshes dispatch
        through the scheduler (admission + fairness against batch
        tenants), and its score cache comes from the shared artifact
        layer, so exact scores revealed over the same (video, UDF) are
        not paid for again. Accepts
        objects or registry names like :meth:`Session.open_stream`;
        a registry name's builder keywords come as ``video_kwargs``.
        """
        self._check_open()
        # Resolved here, not in Session.open_stream: the shared score
        # cache is keyed by the resolved pair.
        video, scoring = resolve_pair(
            video, scoring, video_kwargs, call="QueryService.open_stream")
        stream = Session.open_stream(
            video, scoring, initial_frames=initial_frames, config=config,
            unit_costs=unit_costs, autosave_path=autosave_path,
            window_seconds=window_seconds,
            score_cache=self.artifacts.score_cache(
                group_key(video, scoring)))
        return self.attach_stream(stream, tenant=tenant)

    def attach_stream(self, stream, *, tenant: str = "stream"):
        """Route a streaming session's refreshes through the scheduler.

        Each ``append()`` submits one refresh pass as a scheduled job
        under ``tenant`` — admission control applies, and the physical
        confirmation work it causes is charged to the tenant's
        fairness account. The pass itself runs in the scheduler's
        worker thread (streaming state is single-process), never on
        the process pool. The stream keeps its own block-inference
        cache: what a service shares is immutable or append-only.
        """
        self._check_open()
        if not (isinstance(stream, Session) and stream.live):
            raise QueryError(
                "attach_stream expects a live session; open one "
                "with Session.open_stream(...) or service.open_stream")

        def dispatch(refresh):
            job = _Job(target=stream, work=refresh, tenant=tenant)
            attrs = dict(video=stream.video.name, udf=stream.scoring.name)
            (future,) = self._enqueue(
                "stream_refresh", tenant, [(job, None, attrs)])
            return future.result()

        stream.refresh_dispatcher = dispatch
        with self._lock:
            self._streams.add(stream)
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
        self, name: str, tenant: str, entries: Sequence[tuple]
    ) -> List[QueryFuture]:
        """Hand ``tenant``'s ``entries`` — ``(job, batch_key, trace
        attrs)`` triples — to the scheduler, whole or not at all, each
        numbered and under a new ``name`` trace."""
        tracer = self.tracer
        items, admissions = [], []
        for job, batch_key, attrs in entries:
            trace = tracer.begin(name, tenant=tenant, **attrs)
            job = dataclasses.replace(
                job, seq=next(self._submit_seq), trace=trace)
            admission = None
            if trace is not None:
                admission = trace.start_span(
                    "admission", category="scheduler")
            items.append((job, batch_key))
            admissions.append(admission)
        try:
            futures = self._scheduler.submit_all(
                [(job, key, job.seq) for job, key in items], tenant=tenant)
        except BaseException as error:  # noqa: BLE001 - re-raised
            # The scheduler refused the lot (admission / closed).
            for job, _key in items:
                tracer.finish(
                    job.trace, status=f"error:{type(error).__name__}")
            raise
        for (job, _key), admission, future in zip(items, admissions, futures):
            trace = job.trace
            if trace is not None:
                # The request was queued: admission over, queue wait begins.
                admission.finish()
                trace.start_span("queue_wait", category="scheduler")
                future.trace_id = trace.trace_id
                future.add_done_callback(self._trace_closer(trace))
        return futures

    def _trace_closer(self, trace):
        """A done-callback that finishes ``trace``.

        Also where a failure closes its spans: Trace.finish closes
        whatever is still open under the error status.
        """
        def _finish(done_future: QueryFuture) -> None:
            error = done_future.exception()
            self.tracer.finish(
                trace,
                status="ok" if error is None
                else f"error:{type(error).__name__}")

        return _finish

    @staticmethod
    def _pickup(job: _Job, **attrs):
        """Close the job's queue wait, open its execute span (or None)."""
        trace = job.trace
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
        target — a session or a corpus — is implied) or a compiled
        :class:`~repro.api.plan.QueryPlan` (pass ``session=``). Plans
        are normalized to deterministic timing so results are
        bit-identical to serial execution regardless of scheduling.
        Raises :class:`~repro.errors.AdmissionError` beyond
        ``max_pending`` and :class:`~repro.errors.ServiceClosedError`
        after :meth:`close`; either refusal lands in the per-tenant
        rejection counters :meth:`stats` reports.
        """
        self._refuse_closed(tenant)
        if isinstance(query, Query):
            if not isinstance(query.target, Session):
                return self._submit_corpus(query, tenant=tenant)
            if session is None:
                session = query.target
            plan = query.plan()
        elif isinstance(query, QueryPlan):
            if session is None:
                raise QueryError(
                    "submitting a compiled QueryPlan needs session=...")
            plan = query
        else:
            raise QueryError(
                f"submit expects a Query or QueryPlan, got {query!r}")
        (future,) = self._enqueue(
            "query", tenant, [self._query_entry(plan, session, tenant)])
        return future

    def _refuse_closed(self, tenant: str) -> None:
        if self._closed:
            self._scheduler.count_rejection(tenant, "closed")
            raise ServiceClosedError("query service is closed")

    def _query_entry(
        self, plan: QueryPlan, session: Session, tenant: str
    ) -> tuple:
        """One plan on its session, ready for :meth:`_enqueue`."""
        # Plain batch sessions are adopted on first submission so their
        # Phase-1 builds go single-flight through the shared store and
        # their confirmations hit the group score cache. Streaming
        # sessions keep their own incremental machinery (attach_stream
        # wires them in explicitly).
        if session.artifacts is None and not session.live:
            self.adopt_session(session)
        job = _Job(target=session, work=plan, tenant=tenant)
        attrs = dict(video=plan.video_name, udf=plan.udf_name,
                     k=plan.k, thres=plan.thres)
        return job, (session, phase1_key(plan.config)), attrs

    def _submit_corpus(self, query, *, tenant: str) -> QueryFuture:
        """Queue one federated corpus query (DESIGN.md §9).

        Member sessions are adopted into the shared artifact layer on
        first submission, so per-shard Phase-1 builds go single-flight
        through the store (side by side in pool workers on the process
        lane) and shard confirmations hit each member's group score
        cache. The federated Phase-2 loop, shard scoring included, runs
        inline on a scheduler worker.
        """
        corpus = query.target
        for member in corpus.members:
            if not member.streaming and member.session.artifacts is None:
                self.adopt_session(member.session)
        job = _Job(target=corpus, work=query, tenant=tenant)
        attrs = dict(shards=len(corpus.members), udf=corpus.scoring.name)
        (future,) = self._enqueue("corpus_query", tenant, [(job, None, attrs)])
        return future

    def gather(
        self,
        futures: Sequence[QueryFuture],
        *,
        timeout: Optional[float] = None,
    ) -> List[QueryReport]:
        """Reports for ``futures`` in submission order (blocking)."""
        return [future.result(timeout) for future in futures]

    # ------------------------------------------------------------------
    # Workload planning (DESIGN.md §11)
    # ------------------------------------------------------------------
    def plan_workload(
        self,
        queries: Sequence,
        *,
        session: Optional[Session] = None,
    ):
        """Order pending submissions so shared Phase-1 artifacts build once.

        Returns a :class:`~repro.optimizer.planner.WorkloadPlan`: the
        queries grouped by the artifact they need (warm groups first,
        then first-submission order), each naming the lane it will run
        on. Read-only — planning changes nothing about how this or any
        later submission runs. ``plan.explain()`` renders the order;
        :meth:`submit_plan` executes it.
        """
        self._check_open()
        from ..optimizer import WorkloadPlanner

        planner = WorkloadPlanner(artifacts=self.artifacts)
        return planner.plan(queries, session=session, lane=self._lane)

    def submit_plan(
        self,
        workload_plan,
        *,
        tenant: str = "default",
    ) -> List[QueryFuture]:
        """Submit a planned workload in its planned order.

        Returns futures aligned with the *original* submission list
        the plan was built from (``futures[i]`` answers ``queries[i]``
        no matter where the planner scheduled it). The plan is admitted
        whole or refused whole: beyond ``max_pending`` (or on a closed
        service) nothing is queued and one rejection is counted, so no
        query ever runs that the caller holds no future for.
        """
        self._refuse_closed(tenant)
        items = workload_plan.items
        planned = self._enqueue("query", tenant, [
            self._query_entry(item.plan, item.session, tenant)
            for item in items
        ])
        with self._lock:
            self._planned += len(items)
        futures: List[Optional[QueryFuture]] = [None] * len(items)
        for item, future in zip(items, planned):
            futures[item.index] = future
        return futures  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Execution (called on scheduler worker threads): every job is
    # picked up, executed by its kind's function, and settled.
    # ------------------------------------------------------------------
    def _lane(self, session: Session) -> str:
        """Where work on ``session`` runs: ``"process"`` or ``"inline"``.

        The one statement of the lane rule. The process lane memoizes a
        pickled snapshot of the session's video per pool worker, so only
        an immutable snapshot may ship: a closed session. A stream's
        watermark advances between appends — a worker would answer over
        a stale (shorter) copy, and crash confirming appended frames,
        while the inline lane reads the live view. Query batches,
        Phase-1 builds (the artifact store's ``build_pool``), the
        execute span's ``lane`` and the workload planner all ask here;
        the lane never changes a report byte. A corpus query and a
        refresh pass always run inline, and so does everything once
        :meth:`close` has dropped the pool — a session outlives its
        service.
        """
        if self._pool is None or session.live:
            return "inline"
        return "process"

    def _run_batch(self, jobs: Sequence[_Job]) -> List[JobOutcome]:
        """Pick up, execute, settle — the one path every job takes.

        Whatever fails the *whole* batch simply raises out of here:
        ``FairScheduler._spread_error`` is the one place an error is
        fanned out (a private copy per future), and each failed
        future's done-callback finishes its trace, which closes the
        spans the failure left open under ``error:<Type>``.
        """
        work = jobs[0].work
        lane = self._lane(jobs[0].target) if isinstance(work, QueryPlan) \
            else "inline"
        spans = [
            self._pickup(job, batch_size=len(jobs), lane=lane)
            for job in jobs
        ]
        if isinstance(work, QueryPlan):
            results = self._execute_queries(jobs, spans, lane)
        else:
            # Submitted with batch_key=None: one job per batch.
            execute = self._execute_refresh if callable(work) \
                else self._execute_corpus
            results = [
                execute(job, span, lane) for job, span in zip(jobs, spans)]
        return [
            self._settle(job, span, result)
            for job, span, result in zip(jobs, spans, results)
        ]

    def _settle(self, job: _Job, span, result) -> JobOutcome:
        """The one tail: query outcome, trace attributes, scheduler outcome.

        ``result`` is what the kind's execute function produced for
        this job: an exception (a plan that failed alone inside an
        inline batch; its trace is closed like a whole-batch failure's)
        or a detail carrying ``report``, ``phase2_cost`` and
        ``fresh_confirm_calls`` — an
        :class:`~repro.api.executor.ExecutionDetail`, or a corpus
        query's :class:`~repro.corpus.federated.CorpusOutcome`. That
        detail is the query's outcome: it rides the job's future
        (which carries the tenant and seq), and the service keeps only
        the last few. A refresh pass has no ledger of its own
        (``phase2_cost`` is None — its reports' ledgers stay with the
        stream's subscriptions), so it has no outcome and charges its
        tenant the confirmations the pass physically paid.
        """
        if isinstance(result, BaseException):
            return JobOutcome(error=result)
        cost, fresh = result.phase2_cost, result.fresh_confirm_calls
        attrs = {"fresh_confirm_calls": fresh}
        outcome = None
        if cost is None:
            charge = fresh * job.target.resolved_unit_costs() \
                .get("oracle_confirm", 0.0)
        else:
            charge = cost.seconds("oracle_confirm")
            attrs["sim_seconds_total"] = cost.total_seconds()
            outcome = result
            with self._lock:
                self._outcomes.append(outcome)
        if span is not None:
            span.set(**attrs).finish()
        return JobOutcome(value=result.report, charge=charge, detail=outcome)

    def _execute_refresh(self, job: _Job, span, lane) -> ExecutionDetail:
        """One stream's refresh pass, on this thread (a stream is live,
        so its lane is always inline: streaming state is single-process).
        """
        with activate(span):
            value = job.work()
        # What the pass's own executor paid: concurrent ad-hoc queries
        # on the stream pay on theirs.
        return ExecutionDetail(
            report=value, phase2_cost=None, fresh_confirm_calls=value[1])

    def _execute_corpus(self, job: _Job, span, lane):
        """One federated query, on this thread: the cold members whose
        builds run in a pool worker lease side by side first (a lease
        then waits on a worker, not on the GIL), then the Phase-2 loop
        scores here. Their entries come back in member order, so the
        earliest member's failure re-raises first."""
        config = job.work.plan().config
        with activate(span):
            thread_map(
                lambda member: member.session.phase1(config),
                [member for member in job.target.cold_members(config)
                 if self._lane(member.session) != "inline"],
                workers=self.workers)
            return job.work.run_detailed()

    def _execute_queries(self, jobs: Sequence[_Job], spans, lane) -> list:
        """One same-artifact batch of plans; a detail or an error each."""
        session = jobs[0].target
        plans = [job.work for job in jobs]
        # Phase 1 first: single-flight through the shared store (the
        # batch shares one artifact by construction of batch_key).
        # Each lease runs under its job's execute span, so the build
        # (or wait) lands in the paying query's trace while batchmates
        # record cache hits.
        entries = []
        for plan, span in zip(plans, spans):
            with activate(span):
                entries.append((plan.config, session.phase1(plan.config)))
        if lane != "inline":
            return self._ship(jobs, spans, entries, lane)
        executor = QueryExecutor(session)
        results = []
        for plan, span in zip(plans, spans):
            try:
                with activate(span):
                    results.append(executor.execute_detailed(plan))
            except Exception as error:  # noqa: BLE001 - settled
                results.append(error)
        return results

    def _ship(self, jobs: Sequence[_Job], spans, entries, lane) -> list:
        """Run a batch's Phase 2 in a pool worker; a detail per plan.

        This scheduler thread writes the task into an idle worker's
        pipe and reads the answer back itself (DESIGN.md §6)."""
        session = jobs[0].target
        pool = self._pool
        key = phase1_key(jobs[0].work.config)
        with self._lock:
            # Lives exactly as long as the session (see ``_specs``).
            specs = self._specs.setdefault(session, {})
            if key not in specs:
                specs[key] = ship_spec(session, entries)
            spec = specs[key]
        lane_spans = [
            None if span is None else job.trace.start_span(
                "lane_dispatch", category="service",
                parent=span, attrs={"lane": lane})
            for job, span in zip(jobs, spans)
        ]
        result = run_batch_in_pool(
            pool,
            spec=spec,
            plans=[job.work for job in jobs],
            traced=any(span is not None for span in spans),
        )
        # Re-parent worker-side spans under each query's lane-dispatch
        # span (rebased to the parent clock).
        for job, lane_span, dumps in zip(
                jobs, lane_spans, result.spans or [None] * len(jobs)):
            if lane_span is not None:
                job.trace.adopt(dumps or [], parent=lane_span)
                lane_span.finish()
        return list(result.details)

    # ------------------------------------------------------------------
    # Accounting and introspection
    # ------------------------------------------------------------------
    def outcomes(self) -> list:
        """The last :data:`RECENT_OUTCOMES` completed query outcomes
        (each an ``ExecutionDetail`` or a ``CorpusOutcome``), oldest
        first. A query's own outcome is ``future.outcome()``."""
        with self._lock:
            return list(self._outcomes)

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

        Returns a :class:`ServiceStats`, with per-tenant
        admission-rejection counters; ``as_dict()`` is its JSON-safe
        form.
        """
        with self._lock:
            planned = self._planned
        return ServiceStats(
            **self._scheduler.snapshot(),
            **self.artifacts.snapshot(),
            workers=self.workers,
            use_processes=self.use_processes,
            planned=planned,
            recent_traces=self.tracer.summaries(limit=16),
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
            self._pool = None
        with self._lock:
            for stream in self._streams:
                stream.refresh_dispatcher = None

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

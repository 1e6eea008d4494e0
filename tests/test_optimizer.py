"""Tests for multi-query workload planning (DESIGN.md §11).

The plan is the whole optimizer: a stable group-by on the Phase-1
artifact a query needs. Pinned here are the grouping rule (unit cases
and one hypothesis property that also executes the plan), the service
contract — planning is read-only, a planned order changes *when* work
runs and how many builds it pays, never a report byte — and plan
admission, which is whole or nothing.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import EverestConfig, QueryService, Session
from repro.errors import AdmissionError, QueryError, ServiceClosedError
from repro.optimizer import WorkloadPlanner
from repro.service.scheduler import FairScheduler
from repro.trace import Tracer
from repro.video import TrafficVideo

CONFIG = EverestConfig.fast()
WAIT = 120.0


def _session(name="opt", seed=11, frames=400):
    return Session.open(
        TrafficVideo(name, frames, seed=seed), "count[car]", config=CONFIG)


def _plan(session, k=3):
    return session.query().topk(k).guarantee(0.9).plan()


# ----------------------------------------------------------------------
# WorkloadPlanner


class TestWorkloadPlanner:
    def test_groups_same_artifact_consecutively(self):
        session = _session()
        other = Session.open(
            TrafficVideo("opt-b", 400, seed=12), "count[car]",
            config=CONFIG)
        queries = [
            session.query().topk(3).guarantee(0.9),
            other.query().topk(3).guarantee(0.9),
            session.query().topk(5).guarantee(0.9),
            other.query().topk(5).guarantee(0.9),
        ]
        plan = WorkloadPlanner().plan(queries)
        artifacts = [item.artifact for item in plan.items]
        # Two groups, each contiguous, in first-submission order.
        assert len(set(artifacts)) == 2
        assert plan.order() == [0, 2, 1, 3]

    def test_only_group_head_pays_the_build(self):
        session = _session()
        queries = [
            session.query().topk(5).guarantee(0.9),
            session.query().topk(3).guarantee(0.9),
        ]
        head, tail = WorkloadPlanner().plan(queries).items
        assert not head.warm and tail.warm
        # Submission order inside a group: nothing is re-ranked.
        assert (head.plan.k, tail.plan.k) == (5, 3)

    def test_session_pinned_artifact_plans_warm(self):
        session = _session()
        cold = _session("opt-cold", seed=13)
        queries = [
            cold.query().topk(3).guarantee(0.9),
            session.query().topk(3).guarantee(0.9),
        ]
        assert WorkloadPlanner().plan(queries).order() == [0, 1]
        session.phase1(CONFIG)  # pin the artifact in the session
        plan = WorkloadPlanner().plan(queries)
        # The pinned group leads; the cold one keeps its place after it.
        assert plan.order() == [1, 0]
        assert [item.warm for item in plan.items] == [True, False]

    def test_compiled_plan_needs_session(self):
        session = _session()
        compiled = _plan(session)
        planner = WorkloadPlanner()
        with pytest.raises(QueryError):
            planner.plan([compiled])
        with pytest.raises(QueryError):
            planner.plan(["top-3"])
        plan = planner.plan([compiled], session=session)
        assert plan.items[0].plan is compiled

    def test_explain_renders_every_item(self):
        session = _session()
        plan = WorkloadPlanner().plan(
            [session.query().topk(k).guarantee(0.9) for k in (3, 5)])
        text = plan.explain()
        assert "WorkloadPlan: 2 queries over 1 artifacts, 1 to build" in text
        assert "[#0] opt/count[car] top-3@0.9 frames · cold · lane=inline" \
            in text
        assert "[#1] opt/count[car] top-5@0.9 frames · warm · lane=inline" \
            in text


# ----------------------------------------------------------------------
# The grouping rule, as a property — and executed.

#: (k, thres) shapes a property example mixes per artifact.
SHAPES = ((2, 0.9), (3, 0.9), (5, 0.9), (2, 0.95), (4, 0.8), (6, 0.85))
_REFERENCE = {}


def _prop_video(artifact: int) -> TrafficVideo:
    return TrafficVideo(f"plan-{artifact}", 300, seed=40 + artifact)


def _reference(artifact: int, shape: int) -> str:
    """Plain serial ``Session`` bytes for one (artifact, shape)."""
    if (artifact, shape) not in _REFERENCE:
        session = Session.open(
            _prop_video(artifact), "count[car]", config=CONFIG)
        for index, (k, thres) in enumerate(SHAPES):
            _REFERENCE[artifact, index] = session.query().topk(k) \
                .guarantee(thres).run().to_json()
    return _REFERENCE[artifact, shape]


@st.composite
def _workloads(draw):
    """An interleaving of 2-5 artifacts x 1-6 shapes, plus which
    artifact (if any) is store-resident and which session-pinned."""
    count = draw(st.integers(2, 5))
    submissions = [
        (artifact, shape)
        for artifact in range(count)
        for shape in draw(st.lists(
            st.sampled_from(range(len(SHAPES))), min_size=1, max_size=6,
            unique=True))
    ]
    choice = st.one_of(st.none(), st.integers(0, count - 1))
    return draw(st.permutations(submissions)), draw(choice), draw(choice)


class TestGroupingRule:
    @settings(max_examples=20, deadline=None)
    @given(_workloads())
    def test_the_plan_is_a_stable_group_by_that_builds_each_artifact_once(
            self, workload):
        submissions, resident, pinned = workload
        artifacts = [artifact for artifact, _ in submissions]
        with QueryService(
                workers=1, use_processes=False,
                artifact_entries=1) as service:
            def open_session(artifact):
                return service.open_session(
                    _prop_video(artifact), "count[car]", config=CONFIG)

            # The pinned artifact's queries share one session that has
            # already leased its entry; everyone else arrives on a
            # session of their own, so only residency can save a build.
            shared = None
            if pinned is not None:
                shared = open_session(pinned)
                shared.phase1()
            if resident is not None:
                open_session(resident).phase1()  # evicts the pinned one
            sessions = [
                shared if artifact == pinned else open_session(artifact)
                for artifact in artifacts
            ]
            queries = [
                session.query().topk(SHAPES[shape][0])
                .guarantee(SHAPES[shape][1])
                for session, (_, shape) in zip(sessions, submissions)
            ]
            plan = service.plan_workload(queries)
            order = plan.order()

            # A permutation of the submissions …
            assert sorted(order) == list(range(len(submissions)))
            # … each artifact contiguous and in submission order …
            runs = [artifacts[index] for index in order]
            groups = [a for i, a in enumerate(runs)
                      if i == 0 or runs[i - 1] != a]
            assert len(groups) == len(set(artifacts))
            for artifact in groups:
                mine = [i for i in order if artifacts[i] == artifact]
                assert mine == sorted(mine)
            # … resident / pinned groups first, every group otherwise
            # where its first query was submitted.
            warm = {resident, pinned} - {None}
            assert groups == sorted(
                groups, key=lambda a: (a not in warm, artifacts.index(a)))
            for item in plan.items:
                first = artifacts.index(artifacts[item.index]) == item.index
                assert item.warm == (
                    not first or artifacts[item.index] in warm)

            reports = service.gather(service.submit_plan(plan), timeout=WAIT)
            stats = service.stats()
        # One build per distinct artifact, pre-warming included; bytes
        # equal to serial execution; futures[i] answers queries[i].
        assert stats.builds == len(set(artifacts))
        assert stats.planned == len(submissions)
        assert [report.to_json() for report in reports] == [
            _reference(artifact, shape) for artifact, shape in submissions]


# ----------------------------------------------------------------------
# Service integration


def _delta(before, after):
    """What moved between two ``stats().as_dict()`` snapshots."""
    moved = {}
    for key, value in after.items():
        if isinstance(value, dict):
            inner = {k: v - before[key].get(k, 0) for k, v in value.items()
                     if not isinstance(v, dict)}
            moved.update({f"{key}.{k}": v for k, v in inner.items() if v})
        elif isinstance(value, (int, float)) and value != before[key]:
            moved[key] = value - before[key]
    return moved


def _snapshot(service):
    stats = service.stats().as_dict()
    del stats["recent_traces"]
    return stats


class TestServiceIntegration:
    def _queries(self, service, frames=400):
        sessions = [
            service.open_session(
                TrafficVideo(name, frames, seed=seed), "count[car]",
                config=CONFIG)
            for name, seed in (("int-a", 21), ("int-b", 22))
        ]
        # Interleave artifacts so arrival order alternates between them.
        return [
            sessions[i % 2].query().topk(3 + 2 * (i // 2)).guarantee(0.9)
            for i in range(4)
        ]

    def test_no_knob_selects_an_ordering(self):
        def parameters(function):
            return [name for name in inspect.signature(function).parameters
                    if name != "self"]

        assert parameters(QueryService.__init__) == [
            "workers", "use_processes", "max_pending",
            "artifact_entries", "warm_dir", "tracer"]
        assert parameters(FairScheduler.__init__) == [
            "run_batch", "workers", "max_pending", "max_batch"]
        with pytest.raises(TypeError):
            QueryService(workers=1, ordering="cost")

    def test_planned_order_matches_arrival_order_bytes(self):
        with QueryService(workers=1, use_processes=False) as arrival:
            baseline = [
                r.to_json()
                for r in arrival.gather(
                    [arrival.submit(q) for q in self._queries(arrival)])
            ]
        with QueryService(workers=1, use_processes=False) as planned:
            wplan = planned.plan_workload(self._queries(planned))
            reports = planned.gather(planned.submit_plan(wplan))
        assert [r.to_json() for r in reports] == baseline

    def test_submit_plan_aligns_futures_with_submission_order(self):
        with QueryService(workers=1, use_processes=False) as service:
            queries = self._queries(service)
            wplan = service.plan_workload(queries)
            # The interleaved submission reorders into contiguous
            # artifact groups: a permutation, not the identity.
            assert wplan.order() == [0, 2, 1, 3]
            reports = service.gather(service.submit_plan(wplan))
            # futures[i] answers queries[i]: k values line up.
            for query, report in zip(queries, reports):
                assert report.k == query.plan().k

    def test_stats_surface_optimizer_fields(self):
        with QueryService(workers=1, use_processes=False) as service:
            queries = self._queries(service)
            service.gather(
                service.submit_plan(service.plan_workload(queries)))
            stats = service.stats()
            assert stats.planned == len(queries)
            assert stats.builds == 2
            assert stats.build_seconds > 0
            payload = stats.as_dict()
            assert payload["planned"] == len(queries)
            assert payload["build_seconds"] == stats.build_seconds

    def test_an_unplanned_service_reports_planned_zero(self):
        with QueryService(workers=1, use_processes=False) as service:
            stats = service.stats()
            assert stats.planned == 0
            # Nothing prices: the calibration gauges are gone.
            assert not {"ordering", "calibration_observed",
                        "estimated_seconds", "actual_seconds",
                        "calibration_error"} & set(stats.as_dict())

    def test_planning_is_read_only(self):
        """``plan_workload`` used to create an estimator as a side
        effect, after which every execution predicted, observed and
        could override its lane: a query method changed how later
        submissions ran."""
        tracer = Tracer()
        with QueryService(
                workers=1, use_processes=False, tracer=tracer) as service:
            session = service.open_session(
                TrafficVideo("ro", 400, seed=25), "count[car]",
                config=CONFIG)
            query = session.query().topk(4).guarantee(0.9)
            # Build and fill the score cache, so the two submissions
            # compared below do identical physical work.
            service.submit(query).result(WAIT)

            def submission(tenant):
                # A tenant of its own: its charge starts from 0.0, so
                # the two deltas compare exactly.
                before = _snapshot(service)
                future = service.submit(query, tenant=tenant)
                report = future.result(WAIT)
                assert service.drain(WAIT)
                moved = _delta(before, _snapshot(service))
                trace = tracer.get(future.trace_id)
                (execute,) = [s for s in trace.spans if s.name == "execute"]
                return (moved.pop(f"tenants.{tenant}"), moved,
                        execute.attrs["lane"],
                        sorted(set(trace.root.attrs) - {"tenant"}),
                        report.to_json())

            first = submission("before")
            before = _snapshot(service)
            service.plan_workload([query, query])
            assert _snapshot(service) == before
            assert submission("after") == first
            assert first[0] > 0
            assert first[1] == {"submitted": 1, "completed": 1}


# ----------------------------------------------------------------------
# Plan admission: whole or nothing.


@contextlib.contextmanager
def _parked(service):
    """Block the service's batches until ``release`` is set (or exit)."""
    entered, release = threading.Event(), threading.Event()
    scheduler = service._scheduler
    run_batch = scheduler._run_batch

    def parked(payloads):
        entered.set()
        assert release.wait(WAIT)
        return run_batch(payloads)

    scheduler._run_batch = parked
    try:
        yield entered, release
    finally:
        release.set()


class TestPlanAdmission:
    def _service(self, max_pending):
        service = QueryService(
            workers=1, use_processes=False, max_pending=max_pending)
        session = service.open_session(
            TrafficVideo("adm", 300, seed=26), "count[car]", config=CONFIG)
        return service, session

    def test_a_plan_larger_than_max_pending_is_refused_whole(self):
        service, session = self._service(max_pending=3)
        with service:
            plan = service.plan_workload(
                [session.query().topk(k).guarantee(0.9)
                 for k in range(2, 10)])
            with pytest.raises(AdmissionError) as refused:
                service.submit_plan(plan, tenant="t")
            assert refused.value.reason == "max_pending"
            assert "8 more" in str(refused.value)
            assert "max_pending=3" in str(refused.value)
            assert service.drain(WAIT)
            stats = service.stats()
            # Nothing ran that the caller holds no future for.
            assert (stats.submitted, stats.completed, stats.pending,
                    stats.planned) == (0, 0, 0, 0)
            assert stats.rejected == 1
            assert stats.rejections == {"t": {"max_pending": 1}}
            assert service.outcomes() == []

    def test_a_plan_that_does_not_fit_behind_queued_work_is_refused_whole(
            self):
        service, session = self._service(max_pending=6)
        with service, _parked(service) as (entered, release):
            query = session.query().topk(3).guarantee(0.9)
            running = service.submit(query, tenant="t")
            assert entered.wait(WAIT)
            queued = [service.submit(query, tenant="t") for _ in range(3)]
            plan = service.plan_workload(
                [session.query().topk(k).guarantee(0.9) for k in (2, 4, 5, 6)])
            with pytest.raises(AdmissionError, match="3 queries already"):
                service.submit_plan(plan, tenant="t")
            stats = service.stats()
            assert (stats.submitted, stats.pending, stats.planned) == (4, 3, 0)
            assert stats.rejections == {"t": {"max_pending": 1}}
            # One fewer and it fits: admitted whole, counted whole.
            smaller = service.plan_workload(
                [session.query().topk(k).guarantee(0.9) for k in (2, 4, 5)])
            futures = service.submit_plan(smaller, tenant="t")
            stats = service.stats()
            assert (stats.submitted, stats.pending, stats.planned) == (7, 6, 3)
            release.set()
            assert [f.result(WAIT).k for f in futures] == [2, 4, 5]
            assert all(f.result(WAIT).k == 3 for f in (running, *queued))

    def test_a_closed_service_refuses_a_plan(self):
        service, session = self._service(max_pending=8)
        plan = service.plan_workload(
            [session.query().topk(k).guarantee(0.9) for k in (2, 3)])
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit_plan(plan, tenant="t")
        stats = service.stats()
        assert (stats.submitted, stats.planned) == (0, 0)
        assert stats.rejections == {"t": {"closed": 1}}

    def test_plan_admission_is_atomic_against_a_racing_submitter(self):
        """A second thread submits into the same tenant while plans are
        admitted: ``submitted`` only ever moves by 0 or a plan's length,
        so the books balance to the last query."""
        size = 5
        service, session = self._service(max_pending=8)
        with service:
            query = session.query().topk(3).guarantee(0.9)
            service.submit(query).result(WAIT)  # Phase 1 out of the way
            plan = service.plan_workload([query] * size)
            singles = {"ok": 0, "refused": 0}
            stop = threading.Event()

            def racer():
                while not stop.is_set():
                    try:
                        service.submit(query, tenant="t")
                        singles["ok"] += 1
                    except AdmissionError:
                        singles["refused"] += 1
                        time.sleep(0.005)  # let the queue drain a little

            thread = threading.Thread(target=racer)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # tear what can be torn
            plans = {"ok": 0, "refused": 0}
            try:
                thread.start()
                deadline = time.monotonic() + WAIT
                while plans["ok"] < 10 and time.monotonic() < deadline:
                    try:
                        service.submit_plan(plan, tenant="t")
                        plans["ok"] += 1
                    except AdmissionError:
                        plans["refused"] += 1
                        time.sleep(0.0005)
            finally:
                stop.set()
                thread.join(WAIT)
                sys.setswitchinterval(interval)
            assert not thread.is_alive()
            assert service.drain(WAIT)
            stats = service.stats()
            assert plans["ok"] == 10 and plans["refused"] > 0
            assert stats.planned == size * plans["ok"]
            assert stats.submitted == 1 + singles["ok"] + size * plans["ok"]
            assert stats.completed == stats.submitted
            assert stats.rejections.get("t", {}).get("max_pending", 0) \
                == singles["refused"] + plans["refused"]

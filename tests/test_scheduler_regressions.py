"""Regression tests for scheduler/ledger correctness fixes.

Three bugs, each pinned by a test that fails on the pre-fix code:

* ``FairScheduler.drain()`` could return before the finished batch's
  futures were resolved (the worker decremented ``_running`` first,
  resolved after) — a drained caller could observe ``done() == False``
  and a ``add_done_callback`` hook could miss its window.
* A failed batch fanned one exception *instance* to every future;
  concurrent ``result()`` re-raises then mutated the shared
  ``__traceback__`` across callers. (Fixed in the scheduler first;
  the service's own batch path went around the fix twice — its
  Phase-1 lease and its pool dispatch — until both simply raised.)
* A done-callback that raised escaped into the worker thread and
  killed it, stranding its batchmates and every later submission.

Plus the starvation property: under sustained, wildly unequal charges
every tenant's queue drains in bounded turns (and in FIFO order within
each tenant).
"""

import collections
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import EverestConfig, QueryService
from repro.errors import AdmissionError, ServiceError
from repro.oracle import counting_udf
from repro.service.scheduler import (
    FairScheduler,
    Job,
    JobOutcome,
    QueryFuture,
    _clone_error,
    take_batch,
)
from repro.trace import Tracer
from repro.video import TrafficVideo
from test_service import WorkerKillingTraffic

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def ok_batch(payloads):
    return [JobOutcome(value=p, charge=0.0) for p in payloads]


class GatedRunner:
    """run_batch that parks the worker on a primer payload.

    Lets a test enqueue jobs *behind* a busy single worker so batch
    formation and dispatch order are deterministic, then release the
    gate and observe what the scheduler did.
    """

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.batches = []
        self._lock = threading.Lock()

    def __call__(self, payloads):
        if payloads[0] == "primer":
            self.entered.set()
            assert self.release.wait(10)
            return [JobOutcome(value="primer")]
        with self._lock:
            self.batches.append(list(payloads))
        return [
            JobOutcome(value=p, charge=float(p[1]))
            for p in payloads
        ]


class TestDrainResolvesFutures:
    def test_drain_implies_done_even_with_slow_resolve(self, monkeypatch):
        """drain() must not return while futures are still resolving.

        A delay injected into ``set_result`` widens the old race window
        (decrement ``_running`` before resolving) from microseconds to
        50ms — pre-fix, drain() returns with ``done() == False``.
        """
        original = QueryFuture.set_result

        def slow_resolve(self, value):
            time.sleep(0.05)
            original(self, value)

        monkeypatch.setattr(QueryFuture, "set_result", slow_resolve)
        scheduler = FairScheduler(ok_batch, workers=2)
        try:
            futures = [scheduler.submit(i) for i in range(6)]
            assert scheduler.drain(timeout=10)
            for future in futures:
                assert future.done()
                assert future.result(0) == future.seq
        finally:
            scheduler.close()

    def test_drain_implies_callbacks_fired(self, monkeypatch):
        """The gateway's completion hook must not miss its window."""
        original = QueryFuture.set_result

        def slow_resolve(self, value):
            time.sleep(0.05)
            original(self, value)

        monkeypatch.setattr(QueryFuture, "set_result", slow_resolve)
        scheduler = FairScheduler(ok_batch, workers=1)
        fired = []
        try:
            future = scheduler.submit("job")
            future.add_done_callback(lambda f: fired.append(f.seq))
            assert scheduler.drain(timeout=10)
            assert fired == [future.seq]
        finally:
            scheduler.close()

    def test_drain_implies_done_on_failure(self, monkeypatch):
        original = QueryFuture.set_exception

        def slow_fail(self, error):
            time.sleep(0.05)
            original(self, error)

        monkeypatch.setattr(QueryFuture, "set_exception", slow_fail)

        def boom(payloads):
            raise RuntimeError("nope")

        scheduler = FairScheduler(boom, workers=1)
        try:
            future = scheduler.submit("job")
            assert scheduler.drain(timeout=10)
            assert future.done()
            assert isinstance(future.exception(0), RuntimeError)
        finally:
            scheduler.close()


class TestDoneCallbacks:
    def test_a_raising_callback_is_logged_and_the_worker_serves_on(
            self, caplog):
        """A done-callback that raises must not kill its worker.

        Pre-fix the error escaped through ``_finish``: the batchmate
        never resolved, drain() timed out, a later submit never ran and
        the worker thread was dead.
        """
        runner = GatedRunner()
        scheduler = FairScheduler(runner, workers=1, max_batch=2)
        try:
            scheduler.submit("primer")
            assert runner.entered.wait(10)
            first, second = [
                scheduler.submit((f"job:{i}", 0.0), batch_key="pair")
                for i in range(2)
            ]

            def explode(future):
                raise RuntimeError("callback exploded")

            first.add_done_callback(explode)
            runner.release.set()
            assert scheduler.drain(timeout=1.0)
            assert runner.batches == [[("job:0", 0.0), ("job:1", 0.0)]]
            assert first.result(0) == ("job:0", 0.0)
            assert second.result(0) == ("job:1", 0.0)
            later = scheduler.submit(("later", 0.0))
            assert later.result(10) == ("later", 0.0)
            assert all(thread.is_alive() for thread in scheduler._threads)
            assert any(
                "callback exploded" in str(record.exc_info[1])
                for record in caplog.records if record.exc_info)
        finally:
            scheduler.close()

    def test_cancel_refuses_and_the_job_still_resolves(self):
        runner = GatedRunner()
        scheduler = FairScheduler(runner, workers=1)
        try:
            scheduler.submit("primer")
            assert runner.entered.wait(10)
            queued = scheduler.submit(("queued", 0.0))
            assert queued.cancel() is False
            assert not queued.cancelled()
            runner.release.set()
            assert queued.result(10) == ("queued", 0.0)
            assert scheduler.drain(timeout=10)
        finally:
            scheduler.close()


class TestFutureTimeout:
    def test_a_timeout_is_the_builtin_and_names_the_query(self):
        """Callers catch the builtin ``TimeoutError``, which
        ``concurrent.futures.TimeoutError`` only became in Python 3.11."""
        runner = GatedRunner()
        scheduler = FairScheduler(runner, workers=1)
        try:
            scheduler.submit("primer")
            assert runner.entered.wait(10)
            queued = scheduler.submit(("queued", 0.0), tenant="acme")
            for wait in (queued.result, queued.exception):
                with pytest.raises(TimeoutError) as caught:
                    wait(0.01)
                assert type(caught.value) is TimeoutError
                assert str(caught.value) == (
                    f"query {queued.seq} (tenant 'acme') not done "
                    f"after 0.01s")
            runner.release.set()
            assert queued.result(10) == ("queued", 0.0)
        finally:
            scheduler.close()

    def test_a_query_that_raised_timeout_error_is_done(self):
        def run(payloads):
            raise TimeoutError("the query's own")

        scheduler = FairScheduler(run, workers=1)
        try:
            future = scheduler.submit("job")
            with pytest.raises(TimeoutError, match="the query's own"):
                future.result(10)
            assert str(future.exception(0)) == "the query's own"
        finally:
            scheduler.close()


class TestBatchErrorIsolation:
    def _failed_batch_futures(self, error, count=3):
        """Submit ``count`` same-batch_key jobs that fail as one batch."""
        runner = GatedRunner()

        def run(payloads):
            if payloads[0] == "primer":
                return runner(payloads)
            raise error

        scheduler = FairScheduler(run, workers=1, max_batch=count)
        try:
            primer = scheduler.submit("primer")
            assert runner.entered.wait(10)
            futures = [
                scheduler.submit(("job", 0.0), batch_key="shared")
                for _ in range(count)
            ]
            runner.release.set()
            assert scheduler.drain(timeout=10)
            assert primer.result(0) == "primer"
            return [f.exception(0) for f in futures]
        finally:
            scheduler.close()

    def test_each_future_gets_its_own_instance(self):
        errors = self._failed_batch_futures(ValueError("bad batch", 42))
        assert all(e is not None for e in errors)
        # Distinct instances, identical type and args.
        assert len({id(e) for e in errors}) == len(errors)
        for e in errors:
            assert type(e) is ValueError
            assert e.args == ("bad batch", 42)

    def test_attribute_state_is_preserved(self):
        original = AdmissionError(
            "too much", reason="max_pending", tenant="alice")
        errors = self._failed_batch_futures(original)
        for e in errors:
            assert type(e) is AdmissionError
            assert e.reason == "max_pending"
            assert e.tenant == "alice"

    def test_concurrent_reraise_does_not_cross_contaminate(self):
        errors = self._failed_batch_futures(RuntimeError("shared?"), count=4)

        tracebacks = []

        def reraise(error):
            try:
                raise error
            except RuntimeError as caught:
                tracebacks.append(caught.__traceback__)

        threads = [
            threading.Thread(target=reraise, args=(e,)) for e in errors]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Each future re-raised independently: no two futures share an
        # exception object, so no raise mutated a sibling's traceback.
        assert len({id(e) for e in errors}) == len(errors)
        assert len(tracebacks) == len(errors)

    def test_clone_error_falls_back_on_uncopyable(self):
        class Stubborn(Exception):
            def __reduce_ex__(self, protocol):
                raise TypeError("not copyable")

        original = Stubborn("x")
        assert _clone_error(original) is original


class TestServiceBatchErrorIsolation:
    """The same contract one layer up: a *service* batch that fails as
    a whole — in its Phase-1 lease, or in its pool dispatch — gives
    each future its own exception, through the scheduler's one
    fan-out."""

    WAIT = 60.0

    def _failed_pair(self, service, broken):
        """Two same-artifact queries on ``broken``, queued behind a
        busy worker so they dispatch as one batch; their exceptions."""
        config = EverestConfig.fast()
        primer = service.open_session(
            TrafficVideo("primer", 300, seed=3), counting_udf("car"),
            config=config)
        entered, release = threading.Event(), threading.Event()
        build = primer.phase1

        def gated_phase1(config=None):
            entered.set()
            assert release.wait(self.WAIT)
            return build(config)

        primer.phase1 = gated_phase1
        first = service.submit(primer.query().topk(2).guarantee(0.8))
        assert entered.wait(self.WAIT)
        pair = [
            service.submit(broken.query().topk(k).guarantee(0.8))
            for k in (2, 3)
        ]
        release.set()
        errors = [future.exception(self.WAIT) for future in pair]
        assert first.result(self.WAIT) is not None
        assert service.stats().failed == 2
        return pair, errors

    def _assert_isolated(self, errors, kind):
        one, other = errors
        assert one is not other
        assert type(one) is type(other) is kind and one.args == other.args
        # Independent tracebacks: re-raising one leaves the other's be.
        untouched = other.__traceback__
        with pytest.raises(kind):
            raise one
        assert other.__traceback__ is untouched

    def test_a_failed_phase1_lease_gives_each_future_its_own(self):
        tracer = Tracer()
        with QueryService(
                workers=1, use_processes=False, tracer=tracer) as service:
            broken = service.open_session(
                TrafficVideo("broken", 300, seed=4), counting_udf("car"),
                config=EverestConfig.fast())

            def exploding_phase1(config=None):
                raise RuntimeError("phase 1 exploded", 7)

            broken.phase1 = exploding_phase1
            pair, errors = self._failed_pair(service, broken)
        self._assert_isolated(errors, RuntimeError)
        assert errors[0].args == ("phase 1 exploded", 7)
        # Nothing closed the failed jobs' spans by hand: finishing the
        # trace did, under the error.
        for future in pair:
            trace = tracer.get(future.trace_id)
            assert trace.finished
            assert trace.root.status == "error:RuntimeError"
            assert all(not span.open for span in trace.spans)
            assert {span.status for span in trace.spans
                    if span.name == "execute"} == {"error:RuntimeError"}

    def test_a_dead_pool_worker_gives_each_future_its_own(self, tmp_path):
        video = WorkerKillingTraffic("fused", 300, seed=5)
        video.arm(tmp_path / "fuse")
        tracer = Tracer()
        with QueryService(
                workers=1, use_processes=True, tracer=tracer) as service:
            fused = service.open_session(
                video, counting_udf("car"), config=EverestConfig.fast())
            pair, errors = self._failed_pair(service, fused)
            # Still the retryable contract: the same query again answers.
            assert service.submit(
                fused.query().topk(2).guarantee(0.8)
            ).result(self.WAIT) is not None
        self._assert_isolated(errors, ServiceError)
        for error in errors:
            assert type(error.__cause__).__name__ == "BrokenProcessPool"
        for future in pair:
            trace = tracer.get(future.trace_id)
            assert trace.root.status == "error:ServiceError"
            assert all(not span.open for span in trace.spans)


class TestNoStarvation:
    @SETTINGS
    @given(
        workload=st.dictionaries(
            keys=st.sampled_from(["alice", "bob", "carol", "dave"]),
            values=st.lists(
                st.floats(0.0, 100.0), min_size=1, max_size=6),
            min_size=2,
            max_size=4,
        ),
    )
    def test_unequal_charges_never_starve_a_tenant(self, workload):
        """Every tenant's queue drains under sustained unequal charges.

        Jobs are enqueued behind a parked worker so the scheduler sees
        all tenants at once; each job's payload carries the fairness
        charge it will report. However lopsided the charges, drain
        completes bounded by total work and each tenant's own jobs run
        in FIFO order.
        """
        runner = GatedRunner()
        scheduler = FairScheduler(runner, workers=1, max_batch=1)
        try:
            primer = scheduler.submit("primer", tenant="primer")
            assert runner.entered.wait(10)
            futures = {
                tenant: [
                    scheduler.submit((f"{tenant}:{i}", charge),
                                     tenant=tenant)
                    for i, charge in enumerate(charges)
                ]
                for tenant, charges in workload.items()
            }
            runner.release.set()
            total = sum(len(v) for v in futures.values())
            assert scheduler.drain(timeout=30), \
                f"drain stalled with {total} jobs queued"
            assert primer.done()
            executed = [p[0] for batch in runner.batches for p in batch]
            assert len(executed) == total
            for tenant, tenant_futures in futures.items():
                for future in tenant_futures:
                    assert future.done()
                mine = [
                    name for name in executed
                    if name.startswith(f"{tenant}:")
                ]
                assert mine == sorted(
                    mine, key=lambda n: int(n.split(":")[1])), \
                    f"{tenant} ran out of FIFO order: {mine}"
        finally:
            scheduler.close()

    def test_least_charged_tenant_runs_first(self):
        runner = GatedRunner()
        scheduler = FairScheduler(runner, workers=1, max_batch=1)
        try:
            scheduler.submit("primer", tenant="primer")
            assert runner.entered.wait(10)
            # heavy charges 50 per job, light charges nothing: after
            # heavy's first completion its deficit dwarfs light's, so
            # light's whole queue must drain before heavy's second job.
            heavy = [
                scheduler.submit(("heavy:%d" % i, 50.0), tenant="heavy")
                for i in range(2)
            ]
            light = [
                scheduler.submit(("light:%d" % i, 0.0), tenant="light")
                for i in range(3)
            ]
            runner.release.set()
            assert scheduler.drain(timeout=10)
            executed = [p[0] for batch in runner.batches for p in batch]
            assert executed.index("heavy:1") > executed.index("light:2")
            for future in heavy + light:
                assert future.done()
        finally:
            scheduler.close()


class TestFifoPolicyContract:
    def test_adjacent_same_key_jobs_batch(self):
        runner = GatedRunner()
        scheduler = FairScheduler(runner, workers=1, max_batch=8)
        try:
            scheduler.submit("primer", tenant="primer")
            assert runner.entered.wait(10)
            for i in range(3):
                scheduler.submit((f"a:{i}", 0.0), batch_key="k1")
            scheduler.submit(("b:0", 0.0), batch_key="k2")
            runner.release.set()
            assert scheduler.drain(timeout=10)
            sizes = sorted(len(b) for b in runner.batches)
            assert sizes == [1, 3]
        finally:
            scheduler.close()

    # The dequeue rule itself (``take_batch``), without a scheduler.
    @staticmethod
    def _queue(keys):
        return collections.deque(
            Job(seq=seq, tenant="t", batch_key=key, payload=seq,
                future=QueryFuture(seq, "t"))
            for seq, key in enumerate(keys))

    def test_max_batch_bounds_the_batch(self):
        queue = self._queue(["a"] * 5)
        assert [job.seq for job in take_batch(queue, 3)] == [0, 1, 2]
        assert [job.seq for job in queue] == [3, 4]

    def test_none_batch_key_never_batches(self):
        queue = self._queue([None, None])
        assert [job.seq for job in take_batch(queue, 8)] == [0]

    def test_submission_order_leads_and_only_neighbours_ride_along(self):
        # a and b interleaved: the first-submitted job leads, and a
        # same-key job further back does not jump the queue.
        queue = self._queue(["a", "a", "b", "a"])
        assert [job.seq for job in take_batch(queue, 8)] == [0, 1]
        assert [job.seq for job in take_batch(queue, 8)] == [2]
        assert [job.seq for job in queue] == [3]

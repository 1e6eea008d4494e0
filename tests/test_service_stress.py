"""Stress certification for the concurrent query service.

Many submitter threads race many queries over shared videos through
one :class:`~repro.service.QueryService`. The assertions are the
service's whole contract under concurrency:

* no deadlock — every future resolves within a generous timeout;
* reports are **bit-identical** to serial ``Session`` execution,
  regardless of thread interleaving, worker count, or lane;
* exactly one Phase-1 build per distinct ``phase1_key`` — 8-way
  concurrent submission over the same artifact blocks on one
  single-flight build;
* admission control and closed-service errors are clean, and a failed
  query fails only its own future.
"""

from __future__ import annotations

import threading

import pytest

from repro import (
    AdmissionError,
    EverestConfig,
    QueryService,
    ServiceClosedError,
    Session,
)
from repro.oracle import counting_udf
from repro.video import TrafficVideo

#: Resolve every future with a hard deadline: a hang is a deadlock.
DEADLINE = 180.0


def _video(name: str, seed: int) -> TrafficVideo:
    return TrafficVideo(name, 600, seed=seed)


@pytest.fixture(scope="module")
def fast_cfg() -> EverestConfig:
    return EverestConfig.fast()


@pytest.fixture(scope="module")
def serial_reference(fast_cfg):
    """Serial reports for the shared workload, keyed by (video, k)."""
    reference = {}
    for name, seed in (("stress-a", 1), ("stress-b", 2)):
        session = Session(
            _video(name, seed), counting_udf("car"), config=fast_cfg)
        base = session.query().guarantee(0.9)
        for k in (3, 4, 5):
            reference[(name, k)] = base.topk(k).run().to_json()
    return reference


@pytest.mark.parametrize("use_processes", [False, True])
def test_threads_race_shared_videos_bit_identical(
        fast_cfg, serial_reference, use_processes):
    """N submitter threads x M queries: no deadlock, serial-identical."""
    num_threads = 8
    with QueryService(
            workers=4, use_processes=use_processes,
            max_pending=None) as service:
        sessions = {
            name: service.open_session(
                _video(name, seed), counting_udf("car"), config=fast_cfg)
            for name, seed in (("stress-a", 1), ("stress-b", 2))
        }
        results = {}
        errors = []
        barrier = threading.Barrier(num_threads)

        def submitter(thread_index: int) -> None:
            try:
                barrier.wait(timeout=30)
                futures = []
                for j in range(3):
                    name = "stress-a" if (thread_index + j) % 2 else "stress-b"
                    k = 3 + (thread_index + j) % 3
                    query = sessions[name].query().topk(k).guarantee(0.9)
                    futures.append(
                        ((name, k),
                         service.submit(
                             query, tenant=f"tenant-{thread_index % 3}")))
                for key, future in futures:
                    results[(thread_index, key)] = \
                        (key, future.result(DEADLINE))
            except BaseException as error:  # noqa: BLE001 - recorded
                errors.append(error)

        threads = [
            threading.Thread(target=submitter, args=(i,))
            for i in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=DEADLINE)
            assert not thread.is_alive(), "submitter thread hung"
        assert errors == []
        assert len(results) == num_threads * 3

        for key, report in results.values():
            assert report.to_json() == serial_reference[key]

        stats = service.stats()
        # Two videos, one configuration each: exactly two builds, no
        # matter how many threads raced on them.
        assert stats.builds == 2
        assert stats.failed == 0
        assert stats.completed == num_threads * 3


def test_eight_way_single_flight_one_build_per_key(fast_cfg):
    """8 concurrent submissions on one phase1_key -> one build."""
    with QueryService(workers=8, use_processes=False) as service:
        session = service.open_session(
            _video("stress-sf", 7), counting_udf("car"), config=fast_cfg)
        barrier = threading.Barrier(8)
        futures = [None] * 8
        submit_errors = []

        def submit(i: int) -> None:
            try:
                barrier.wait(timeout=30)
                futures[i] = service.submit(
                    session.query().topk(3 + i % 3).guarantee(0.9))
            except BaseException as error:  # noqa: BLE001
                submit_errors.append(error)

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=DEADLINE)
        assert submit_errors == []
        reports = [future.result(DEADLINE) for future in futures]
        assert len(reports) == 8
        stats = service.stats()
        assert stats.builds == 1, stats
        # The losers of the build race either waited on the
        # single-flight event or arrived after and hit the store/
        # session cache; nobody rebuilt.
        assert stats.evictions == 0


def test_cross_session_same_content_shares_one_build(fast_cfg):
    """Distinct Session objects over identical footage share a build."""
    with QueryService(workers=2, use_processes=False) as service:
        one = service.open_session(
            _video("stress-x", 11), counting_udf("car"), config=fast_cfg)
        two = service.open_session(
            _video("stress-x", 11), counting_udf("car"), config=fast_cfg)
        a = service.submit(one.query().topk(3).guarantee(0.9))
        b = service.submit(two.query().topk(3).guarantee(0.9))
        assert a.result(DEADLINE).to_json() == b.result(DEADLINE).to_json()
        assert service.stats().builds == 1
        # And the score cache is shared: the second query's cleaning
        # work was (at least partly) physically free.
        outcomes = [a.outcome(), b.outcome()]
        fresh = [outcome.fresh_confirm_calls for outcome in outcomes]
        confirmed = [
            int(outcome.phase2_cost.units("oracle_confirm"))
            for outcome in outcomes
        ]
        assert sum(fresh) < sum(confirmed)


def test_admission_control_and_close_errors(fast_cfg):
    session_video = _video("stress-adm", 13)
    service = QueryService(workers=1, use_processes=False, max_pending=1)
    accepted = []
    try:
        session = service.open_session(
            session_video, counting_udf("car"), config=fast_cfg)
        # One worker, a one-slot queue: submitting faster than queries
        # execute must trip admission control, not queue unboundedly.
        # The first query occupies the worker with the Phase-1 build,
        # so the queue fills within a couple of submissions.
        with pytest.raises(AdmissionError):
            for _ in range(50):
                accepted.append(
                    service.submit(session.query().topk(3).guarantee(0.9)))
        # Everything accepted before the refusal still completes.
        for future in accepted:
            assert future.result(DEADLINE).confidence >= 0.9
    finally:
        service.close()
    with pytest.raises(ServiceClosedError):
        service.submit(session.query().topk(3).guarantee(0.9))
    with pytest.raises(ServiceClosedError):
        service.open_session(
            session_video, counting_udf("car"), config=fast_cfg)


def test_one_bad_query_fails_only_its_future(fast_cfg):
    from repro import OracleBudgetExceededError

    with QueryService(workers=2, use_processes=False) as service:
        session = service.open_session(
            _video("stress-err", 17), counting_udf("car"), config=fast_cfg)
        good = service.submit(session.query().topk(3).guarantee(0.9))
        bad = service.submit(
            session.query().topk(3).guarantee(0.9).oracle_budget(1))
        assert isinstance(
            bad.exception(DEADLINE), OracleBudgetExceededError)
        assert good.result(DEADLINE).confidence >= 0.9
        stats = service.stats()
        assert stats.failed == 1
        assert stats.completed >= 1

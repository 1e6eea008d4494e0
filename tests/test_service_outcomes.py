"""A query's outcome rides its own future; the service keeps no history.

``QueryFuture.outcome()`` returns the detail the query's job produced
(an :class:`~repro.api.executor.ExecutionDetail`) — the very report
``result()`` returns, its Phase-2 ledger and fresh confirmations; the
future itself carries seq and tenant — and the service itself keeps
only the last ``RECENT_OUTCOMES``. So a service's traced memory is flat in the
number of queries it served once their callers drop the futures.
Every test runs on both lanes.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro import EverestConfig, QueryService, Session
from repro.api.executor import ExecutionDetail, QueryExecutor
from repro.errors import OracleBudgetExceededError
from repro.oracle import counting_udf
from repro.service.service import RECENT_OUTCOMES
from repro.video import TrafficVideo

WAIT = 240
#: Traced growth allowed over the second, longer stretch of queries.
GROWTH_BYTES = 256 * 1024
KS = (3, 4, 5, 6, 7)


def _video():
    return TrafficVideo("outcomes", 600, seed=61)


def _ledger(cost):
    return {key: (cost.units(key), cost.seconds(key))
            for key in cost.breakdown()}


@pytest.fixture(params=[False, True], ids=["inline", "process"])
def served(request):
    """A two-worker service on either lane and one warm session on it."""
    with QueryService(workers=2, use_processes=request.param) as service:
        session = service.open_session(
            _video(), counting_udf("car"), config=EverestConfig.fast())
        _serve(service, session, 2 * len(KS))
        yield service, session


def _query(session, k):
    return session.query().topk(k).guarantee(0.9)


def _serve(service, session, count, chunk=50):
    """``count`` warm queries, ``chunk`` in flight at a time; every
    future is dropped once answered."""
    done = 0
    while done < count:
        futures = [
            service.submit(_query(session, KS[(done + i) % len(KS)]))
            for i in range(min(chunk, count - done))]
        for future in futures:
            future.result(WAIT)
        done += len(futures)


def _traced_bytes(snapshot) -> int:
    return sum(stat.size for stat in snapshot.statistics("filename"))


def test_memory_is_flat_in_queries_served(served):
    service, session = served
    tracemalloc.start()
    try:
        _serve(service, session, 300)
        gc.collect()
        before = tracemalloc.take_snapshot()
        _serve(service, session, 600)
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    growth = _traced_bytes(after) - _traced_bytes(before)
    assert growth < GROWTH_BYTES, growth
    assert len(service.outcomes()) == RECENT_OUTCOMES


def test_outcome_is_the_queries_own(served):
    service, session = served
    read_in_callback = []
    futures = [service.submit(_query(session, k), tenant=f"t{k % 2}")
               for k in KS]
    futures[0].add_done_callback(
        lambda future: read_in_callback.append(future.outcome(0)))
    plain = QueryExecutor(
        Session(_video(), counting_udf("car"), config=EverestConfig.fast()))
    for k, future in zip(KS, futures):
        outcome = future.outcome(WAIT)
        assert isinstance(outcome, ExecutionDetail)
        assert outcome.report is future.result()
        assert future.tenant == f"t{k % 2}"
        reference = plain.execute_detailed(_query(session, k).plan())
        assert outcome.report.to_json() == reference.report.to_json()
        assert _ledger(outcome.phase2_cost) == _ledger(reference.phase2_cost)
    assert read_in_callback == [futures[0].outcome()]
    # The service's recent log holds the very same objects.
    recent = {id(outcome) for outcome in service.outcomes()}
    assert all(id(future.outcome()) in recent for future in futures)


def test_a_failed_querys_outcome_raises_its_error(served):
    service, session = served
    future = service.submit(
        session.query().topk(3).guarantee(0.99).oracle_budget(3))
    with pytest.raises(OracleBudgetExceededError) as from_result:
        future.result(WAIT)
    with pytest.raises(OracleBudgetExceededError) as from_outcome:
        future.outcome(WAIT)
    assert str(from_outcome.value) == str(from_result.value)
    assert from_outcome.value.budget == from_result.value.budget == 3

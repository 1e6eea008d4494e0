"""Regression tests: the oracle cost ledger under parallelism.

Pin the two ledger invariants a sweep through `QueryService` relies on:

* Per-query Phase 2 `CostModel` ledgers, read from each query's
  future, merge key-wise into one service ledger (`conftest.served_cost`),
  and the shared Phase 1 ledger is counted exactly once no matter how
  many queries (or workers) reused it.
* `OracleBudgetExceededError` fires deterministically — same type,
  same budget, same message — on either lane of the service.
"""

from __future__ import annotations

import pytest
from conftest import served_cost

from repro import EverestConfig, QueryService, Session
from repro.errors import OracleBudgetExceededError
from repro.oracle import CostModel, counting_udf, merge_cost_models
from repro.video import TrafficVideo


def _session():
    video = TrafficVideo("ledger", 700, seed=13)
    return Session(video, counting_udf("car"), config=EverestConfig.fast())


def test_cost_model_merge_adds_keywise():
    a = CostModel({"oracle_infer": 0.2})
    b = CostModel({"oracle_infer": 0.2})
    a.charge("oracle_infer", 10)
    a.charge("decode", 5)
    b.charge("oracle_infer", 3)
    b.charge("cmdn_infer", 4)
    merged = merge_cost_models([a, b])
    assert merged.units("oracle_infer") == 13
    assert merged.units("decode") == 5
    assert merged.units("cmdn_infer") == 4
    assert merged.total_seconds() == pytest.approx(
        a.total_seconds() + b.total_seconds())
    # Merging never mutates the sources.
    assert a.units("oracle_infer") == 10
    assert b.units("oracle_infer") == 3


def _service(workers):
    """An inline service at one worker, a process-lane one above."""
    return QueryService(workers=workers, use_processes=workers > 1)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_ledger_merges_without_double_counting(workers):
    session = _session()  # fresh: its Phase 1 builds through the service
    plans = [
        session.query().topk(k).guarantee(0.9).plan() for k in (3, 4, 5)
    ]
    with _service(workers) as service:
        futures = [service.submit(plan, session=session) for plan in plans]
        reports = service.gather(futures, timeout=240)
        phase2_costs = [future.outcome().phase2_cost for future in futures]
        # One Phase 1 ledger despite three queries sharing it.
        assert len(service.artifacts.phase1_ledgers()) == 1
        merged = served_cost(service, futures)
    assert len(phase2_costs) == len(plans)

    phase1 = session.phase1().cost_model
    # Phase 1 charges appear exactly once (not once per query).
    assert merged.units("oracle_label") == phase1.units("oracle_label")
    assert merged.units("cmdn_train") == phase1.units("cmdn_train")
    # Phase 2 charges are the exact sum of the per-query ledgers.
    assert merged.units("oracle_confirm") == pytest.approx(sum(
        cost.units("oracle_confirm") for cost in phase2_costs))
    # And each per-query ledger is consistent with its own report: the
    # confirm units are the oracle calls beyond Phase 1 labelling.
    label_calls = session.phase1().oracle_calls
    for report, cost in zip(reports, phase2_costs):
        assert cost.units("oracle_confirm") == \
            report.oracle_calls - label_calls
        assert cost.units("oracle_label") == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_budget_error_fires_deterministically(workers):
    session = _session()
    budget = 3
    plans = [
        session.query().topk(3).guarantee(0.99)
        .oracle_budget(budget).plan(),
        session.query().topk(3).guarantee(0.9).plan(),
    ]
    with _service(workers) as service:
        futures = [service.submit(plan, session=session) for plan in plans]
        with pytest.raises(OracleBudgetExceededError) as exc_info:
            service.gather(futures, timeout=240)
    # The budget survives the process-pool round trip intact: the very
    # error a plain serial run raises.
    with pytest.raises(OracleBudgetExceededError) as plain:
        _session().execute(plans[0])
    assert exc_info.value.budget == plain.value.budget == budget
    assert str(exc_info.value) == str(plain.value)
    assert "budget of 3" in str(exc_info.value)

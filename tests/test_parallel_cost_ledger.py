"""Regression tests: the oracle cost ledger under parallelism.

Pin the two ledger invariants the parallel subsystem relies on:

* Per-worker Phase 2 `CostModel` ledgers merge key-wise into one
  sweep ledger, and the shared Phase 1 ledger is counted exactly once
  no matter how many grid points (or workers) reused it.
* `OracleBudgetExceededError` fires deterministically — same type,
  same budget, same grid position — whether the sweep runs serially
  or on a process pool.
"""

from __future__ import annotations

import pytest

from repro import EverestConfig, ParallelRunner, Session
from repro.errors import OracleBudgetExceededError
from repro.oracle import CostModel, counting_udf, merge_cost_models
from repro.video import TrafficVideo


@pytest.fixture(scope="module")
def session():
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


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_ledger_merges_without_double_counting(session, workers):
    plans = [
        session.query().topk(k).guarantee(0.9).plan() for k in (3, 4, 5)
    ]
    outcome = ParallelRunner(workers).run_grid_detailed(
        [(session, plan) for plan in plans])

    # One Phase 1 ledger despite three grid points sharing it.
    assert len(outcome.phase1_costs) == 1
    assert len(outcome.phase2_costs) == len(plans)

    merged = outcome.merged_cost()
    phase1 = session.phase1().cost_model
    # Phase 1 charges appear exactly once (not once per grid point).
    assert merged.units("oracle_label") == phase1.units("oracle_label")
    assert merged.units("cmdn_train") == phase1.units("cmdn_train")
    # Phase 2 charges are the exact sum of the per-query ledgers.
    assert merged.units("oracle_confirm") == pytest.approx(sum(
        cost.units("oracle_confirm") for cost in outcome.phase2_costs))
    # And each per-query ledger is consistent with its own report: the
    # confirm units are the oracle calls beyond Phase 1 labelling.
    label_calls = session.phase1().oracle_calls
    for report, cost in zip(outcome.reports, outcome.phase2_costs):
        assert cost.units("oracle_confirm") == \
            report.oracle_calls - label_calls
        assert cost.units("oracle_label") == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_budget_error_fires_deterministically(session, workers):
    budget = 3
    plans = [
        session.query().topk(3).guarantee(0.99)
        .oracle_budget(budget).plan(),
        session.query().topk(3).guarantee(0.9).plan(),
    ]
    with pytest.raises(OracleBudgetExceededError) as exc_info:
        ParallelRunner(workers).run_sweep(session, plans)
    # The budget survives the process-pool round trip intact.
    assert exc_info.value.budget == budget
    assert "budget of 3" in str(exc_info.value)

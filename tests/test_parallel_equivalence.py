"""Equivalence certification for the parallel subsystem.

Two families of properties, both seeded/derandomized:

* **Batched state == from-scratch state.** After any random sequence
  of batched cleanings, `ConfidenceState`'s incrementally maintained
  log-CDF sums, zero counts, and confidence equal (a) a from-scratch
  recompute over a relation built with the cleaned tuples certain and
  (b) the tuple-by-tuple update path.

* **Parallel sweep == serial sweep.** An experiment sweep submitted to
  a `QueryService` (`execute_sweep`) produces `QueryReport.to_json`
  strings byte-identical to plain serial execution at any worker
  count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import EverestConfig, QueryService, Session
from repro.experiments.runner import SweepPoint, execute_sweep
from repro.core.select_candidate import CandidateSelector
from repro.core.topk_prob import ConfidenceState
from repro.core.uncertain import QuantizationGrid, UncertainRelation
from repro.errors import UncertainRelationError
from repro.oracle import counting_udf
from repro.video import TrafficVideo

from conftest import with_certain


# ----------------------------------------------------------------------
# Random-relation machinery (numpy-seeded so hypothesis shrinks over a
# single integer, keeping example generation fast and reproducible).

def random_relation(seed: int) -> UncertainRelation:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 14))
    levels = int(rng.integers(3, 8))
    pmf = rng.random((n, levels))
    # Sparsify aggressively so zero CDF entries (the -inf / zero-count
    # bookkeeping) are exercised, but keep every row normalizable.
    pmf[rng.random((n, levels)) < 0.45] = 0.0
    pmf[np.arange(n), rng.integers(0, levels, size=n)] += 0.5
    pmf /= pmf.sum(axis=1, keepdims=True)
    grid = QuantizationGrid(floor=0.0, step=1.0, num_levels=levels)
    return UncertainRelation(np.arange(n), pmf, grid)


def random_batches(rng, relation):
    """A random sequence of disjoint cleaning batches (pos, score)."""
    available = list(range(len(relation)))
    rng.shuffle(available)
    batches = []
    top = relation.grid.max_level
    while available and rng.random() < 0.9:
        size = int(rng.integers(1, min(4, len(available)) + 1))
        positions = np.array(sorted(available[:size]), dtype=np.int64)
        available = available[size:]
        scores = rng.uniform(-0.4, top + 0.4, size=size)
        batches.append((positions, scores))
    return batches


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**9))
def test_batched_cleaning_equals_sequential_and_scratch(seed):
    relation = random_relation(seed)
    state = ConfidenceState(relation)
    twin_state = ConfidenceState(relation)
    rng = np.random.default_rng(seed + 1)
    cleaned, cleaned_scores = [], []

    for positions, scores in random_batches(rng, relation):
        # Batched hot path vs the tuple-by-tuple reference path.
        state.remove_many(positions)
        for position in positions:
            twin_state.remove_many([int(position)])
        cleaned.extend(positions.tolist())
        cleaned_scores.extend(scores.tolist())

        # Incremental joint-CDF state vs both references.
        scratch = ConfidenceState(
            with_certain(relation, cleaned, cleaned_scores))
        for reference in (twin_state, scratch):
            np.testing.assert_array_equal(
                state.uncertain_mask, reference.uncertain_mask)
            np.testing.assert_array_equal(
                state.zero_count, reference.zero_count)
            np.testing.assert_allclose(
                state.finite_sum, reference.finite_sum, atol=1e-9)

        # Confidence at every level: incremental == direct recompute.
        for level in range(relation.grid.num_levels):
            assert state.topk_prob(level) == pytest.approx(
                state.topk_prob_direct(level), abs=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**9))
def test_vectorized_expected_confidence_matches_bruteforce(seed):
    relation = random_relation(seed)
    state = ConfidenceState(relation)
    rng = np.random.default_rng(seed + 2)

    # Clean a prefix so the exclusion products run over a proper subset
    # (the selector reads D0, the state says what is left uncertain).
    batches = random_batches(rng, relation)
    if batches:
        state.remove_many(batches[0][0])
    uncertain = np.flatnonzero(state.uncertain_mask)
    if uncertain.size == 0:
        return
    top = relation.grid.max_level
    k_level = int(rng.integers(0, top + 1))
    p_level = int(rng.integers(k_level, top + 1))

    selector = CandidateSelector(relation, state)
    got = selector.expected_confidences(uncertain, k_level, p_level)

    # Brute-force Equation 6 straight from the pmf/cdf matrices.
    for f, value in zip(uncertain, got):
        others = uncertain[uncertain != f]

        def joint(level):
            return float(np.prod(relation.cdf[others, level]))

        expected = relation.cdf[f, k_level] * joint(k_level)
        for level in range(k_level + 1, p_level + 1):
            expected += relation.pmf[f, level] * joint(level)
        expected += (1.0 - relation.cdf[f, p_level]) * joint(p_level)
        assert value == pytest.approx(expected, abs=1e-9)


def test_batch_updates_reject_duplicates_and_certain():
    state = ConfidenceState(random_relation(7))
    with pytest.raises(UncertainRelationError):
        state.remove_many(np.array([1, 1]))
    state.remove_many(np.array([0]))
    with pytest.raises(UncertainRelationError):
        state.remove_many(np.array([0]))


# ----------------------------------------------------------------------
# End-to-end: parallel sweeps deep-equal serial ones.

def _fresh_session():
    video = TrafficVideo("par-eq", 800, seed=7)
    return Session(video, counting_udf("car"), config=EverestConfig.fast())


@pytest.fixture(scope="module")
def sweep_session():
    return _fresh_session()


@pytest.fixture(scope="module")
def sweep_plans(sweep_session):
    base = sweep_session.query().guarantee(0.9)
    return [
        base.topk(3).plan(),
        base.topk(5).plan(),
        base.topk(4).windows(size=10).plan(),
    ]


def _sweep_points(session):
    """The ``sweep_plans`` grid as experiment sweep points."""
    return [
        SweepPoint(session, k=3),
        SweepPoint(session, k=5),
        SweepPoint(session, k=4, window_size=10),
    ]


def test_parallel_sweep_reports_bit_identical(sweep_plans):
    reference = _fresh_session()
    serial = [reference.execute(plan) for plan in sweep_plans]
    for workers in (1, 2, 3):
        # A fresh session each time: Phase 1 builds inside the sweep.
        records = execute_sweep(
            _sweep_points(_fresh_session()), workers=workers)
        assert [r.report.to_json() for r in records] == \
            [r.to_json() for r in serial], f"workers={workers}"
    # Sanity: the sweep actually answered the queries.
    assert all(r.confidence >= 0.9 for r in serial)
    assert serial[0].answer_ids != []


def test_executor_workers_and_query_parallel_flag(sweep_plans):
    # The plain executor and a process-lane service agree on every
    # plan, and one plan submitted alone answers what ``run()`` does.
    from repro.api.executor import QueryExecutor

    serial = [
        QueryExecutor(_fresh_session()).execute(plan)
        for plan in sweep_plans
    ]
    session = _fresh_session()
    with QueryService(workers=2, use_processes=True) as service:
        pooled = service.gather(
            [service.submit(plan, session=session) for plan in sweep_plans],
            timeout=240)
        single = _fresh_session()
        via_query = service.submit(
            single.query().topk(3).guarantee(0.9)).result(240)
    assert [r.to_json() for r in pooled] == [r.to_json() for r in serial]
    reference = _fresh_session().query().topk(3).guarantee(0.9).run()
    assert via_query.to_json() == reference.to_json()


def test_execute_sweep_truth_cache_respects_scoring(sweep_session):
    # Two sessions over the SAME video object with different UDFs: the
    # sweep's ground-truth cache must key on the scoring function too,
    # or the second UDF is scored against the first's truth and
    # serial/parallel metrics silently diverge.
    video = sweep_session.video
    other = Session(
        video, counting_udf("person"), config=EverestConfig.fast())
    points = [
        SweepPoint(sweep_session, k=3),
        SweepPoint(other, k=3),
        SweepPoint(sweep_session, k=4),
    ]
    serial = execute_sweep(points, workers=1)
    pooled = execute_sweep(points, workers=2)
    for a, b in zip(serial, pooled):
        assert a.metrics == b.metrics
        assert a.report.answer_ids == b.report.answer_ids


def test_phase1_built_once_and_shared():
    session = _fresh_session()
    execute_sweep(_sweep_points(session), workers=2)
    # One build served every grid point, in whichever process ran it.
    assert session.phase1_runs == 1

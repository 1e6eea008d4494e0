"""Property-based tests (hypothesis) on the core invariants.

These cover the probabilistic machinery with randomized structure:
quantization conservation, CDF monotonicity, the equivalence of the
incremental confidence to the direct product and to possible-world
enumeration, the Eq. 6 closed form versus simulation, and the Eq. 7
bound's dominance.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.reference import (
    expected_confidence_bruteforce,
    topk_prob_bruteforce,
)
from repro.core.select_candidate import CandidateSelector
from repro.core.topk_prob import ConfidenceState
from repro.core.uncertain import QuantizationGrid, grid_for, quantize_mixtures
from repro.metrics import precision_at_k, rank_distance, score_error
from repro.models import GaussianMixture

from conftest import make_relation, with_certain

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def pmf_strategy(levels=4):
    """A strictly valid pmf over ``levels`` levels."""
    return st.lists(
        st.floats(0.01, 1.0), min_size=levels, max_size=levels,
    ).map(lambda w: (np.asarray(w) / np.sum(w)).tolist())


def relation_strategy(min_tuples=3, max_tuples=6, levels=4):
    return st.lists(
        pmf_strategy(levels), min_size=min_tuples, max_size=max_tuples)


class TestQuantizationProperties:
    @SETTINGS
    @given(
        mus=st.lists(st.floats(0.0, 12.0), min_size=1, max_size=3),
        sigmas=st.lists(st.floats(0.1, 3.0), min_size=1, max_size=3),
        step=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_pmf_conservation_and_cdf_monotone(self, mus, sigmas, step):
        g = min(len(mus), len(sigmas))
        mix = GaussianMixture(
            pi=np.ones((1, g)) / g,
            mu=np.asarray(mus[:g])[None, :],
            sigma=np.asarray(sigmas[:g])[None, :],
        )
        grid = grid_for(mix, floor=0.0, step=step)
        pmf = quantize_mixtures(mix, grid)
        assert pmf.shape == (1, grid.num_levels)
        assert pmf.min() >= 0.0
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
        cdf = np.cumsum(pmf[0])
        assert (np.diff(cdf) >= -1e-12).all()

    @SETTINGS
    @given(
        floor=st.floats(-5.0, 5.0),
        step=st.floats(0.1, 2.0),
        levels=st.integers(2, 50),
        value=st.integers(0, 49),
    )
    def test_grid_roundtrip(self, floor, step, levels, value):
        level = value % levels
        grid = QuantizationGrid(floor=floor, step=step, num_levels=levels)
        assert int(grid.level_of(grid.score_of(level))) == level


class TestConfidenceProperties:
    @SETTINGS
    @given(pmfs=relation_strategy(), level=st.integers(0, 3))
    def test_incremental_equals_direct(self, pmfs, level):
        relation = make_relation(pmfs, certain={0: float(level)})
        state = ConfidenceState(relation)
        assert state.topk_prob(level) == pytest.approx(
            state.topk_prob_direct(level), abs=1e-12)

    @SETTINGS
    @given(pmfs=relation_strategy(max_tuples=5), level=st.integers(0, 3))
    def test_eq2_equals_world_enumeration(self, pmfs, level):
        relation = make_relation(pmfs, certain={0: float(level)})
        state = ConfidenceState(relation)
        brute = topk_prob_bruteforce(relation, [0], level)
        assert state.topk_prob(level) == pytest.approx(brute, abs=1e-10)

    @SETTINGS
    @given(pmfs=relation_strategy(), level=st.integers(0, 3))
    def test_cleaning_updates_consistently(self, pmfs, level):
        relation = make_relation(pmfs, certain={0: float(level)})
        state = ConfidenceState(relation)
        # Clean the last tuple at some score; incremental must match a
        # fresh rebuild.
        position = len(pmfs) - 1
        state.remove_many([position])
        rebuilt = ConfidenceState(with_certain(relation, [position], [1.0]))
        for t in range(4):
            assert state.joint_cdf(t) == pytest.approx(
                rebuilt.joint_cdf(t), abs=1e-12)


class TestSelectorProperties:
    @SETTINGS
    @given(pmfs=relation_strategy(min_tuples=4, max_tuples=6))
    def test_eq6_equals_simulation(self, pmfs):
        relation = make_relation(pmfs, certain={0: 3.0, 1: 2.0})
        state = ConfidenceState(relation)
        selector = CandidateSelector(relation, state)
        uncertain = relation.uncertain_positions()
        expected = selector.expected_confidences(uncertain, 2, 3)
        for i, position in enumerate(uncertain):
            brute = expected_confidence_bruteforce(relation, int(position), 2)
            assert expected[i] == pytest.approx(brute, abs=1e-9)

    @SETTINGS
    @given(pmfs=relation_strategy(min_tuples=4, max_tuples=6))
    def test_upper_bound_dominates(self, pmfs):
        relation = make_relation(pmfs, certain={0: 3.0, 1: 2.0})
        state = ConfidenceState(relation)
        selector = CandidateSelector(relation, state)
        uncertain = relation.uncertain_positions()
        expected = selector.expected_confidences(uncertain, 2, 3)
        p_hat = state.topk_prob(2)
        gamma = state.joint_cdf(3)
        bound = p_hat + gamma * selector.psi(uncertain, 2, 3)
        assert (bound >= expected - 1e-9).all()


class TestMetricProperties:
    @SETTINGS
    @given(
        scores=st.lists(
            st.floats(0.0, 20.0), min_size=6, max_size=30),
        k=st.integers(1, 5),
    )
    def test_exact_answer_is_perfect(self, scores, k):
        truth = np.asarray(scores)
        order = np.lexsort((np.arange(truth.size), -truth))
        answer = order[:k].tolist()
        assert precision_at_k(answer, truth, k) == 1.0
        assert rank_distance(answer, truth, k) == 0.0
        answer_scores = [truth[i] for i in answer]
        assert score_error(answer_scores, truth, k) == pytest.approx(0.0)

    @SETTINGS
    @given(
        scores=st.lists(
            st.floats(0.0, 20.0), min_size=8, max_size=30),
        k=st.integers(1, 4),
        seed=st.integers(0, 1_000),
        answer=st.none(),
    )
    # The old ``K * (n - K)`` normaliser read 1.0625 here.
    @example(scores=[2.0, 0.0, 2.0, 0.0, 1.0, 3.0, 2.0, 2.0], k=4, seed=0,
             answer=[4, 3, 1, 5])
    def test_metrics_bounded(self, scores, k, seed, answer):
        truth = np.asarray(scores)
        if answer is None:
            rng = np.random.default_rng(seed)
            answer = rng.choice(truth.size, size=k, replace=False).tolist()
        assert 0.0 <= precision_at_k(answer, truth, k) <= 1.0
        assert 0.0 <= rank_distance(answer, truth, k) <= 1.0
        answer_scores = [truth[i] for i in answer]
        assert score_error(answer_scores, truth, k) >= 0.0

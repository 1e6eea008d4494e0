"""Tests for Select-candidate (Equations 4-8).

The closed-form expected confidence is validated against a brute-force
"simulate the cleaning" reference, and the Equation 7 upper bound and
its early-stopping behaviour are checked directly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reference import expected_confidence_bruteforce
from repro.core.select_candidate import (
    RESORT_EVERY,
    RESORT_WARMUP,
    CandidateSelector,
    _CHUNK,
    top_indices,
)
from repro.core.topk_prob import ConfidenceState

from conftest import make_relation
from reference_phase2 import (
    ReferenceConfidenceState,
    ReferenceSelector,
    SelectCandidateConfig,
)


def build_case(rng, num_tuples=6, levels=4, certain_scores=(3.0, 2.0)):
    """Random relation with the first tuples cleaned as the answer."""
    pmfs = [rng.dirichlet(np.ones(levels)) for _ in range(num_tuples)]
    relation = make_relation(pmfs, certain=dict(enumerate(certain_scores)))
    state = ConfidenceState(relation)
    selector = CandidateSelector(relation, state)
    return relation, state, selector


class TestExpectedConfidence:
    def test_matches_bruteforce_k2(self):
        rng = np.random.default_rng(3)
        for trial in range(8):
            relation, state, selector = build_case(rng)
            k_level = 2  # K-th certain score is 2.0
            p_level = 3  # penultimate is 3.0
            uncertain = relation.uncertain_positions()
            expected = selector.expected_confidences(
                uncertain, k_level, p_level)
            for i, position in enumerate(uncertain):
                brute = expected_confidence_bruteforce(
                    relation, int(position), k=2)
                assert expected[i] == pytest.approx(brute, abs=1e-10), \
                    f"trial {trial} position {position}"

    def test_matches_bruteforce_k1(self):
        """K=1: no penultimate frame; S_p is the grid maximum."""
        rng = np.random.default_rng(5)
        for trial in range(5):
            pmfs = [rng.dirichlet(np.ones(4)) for _ in range(5)]
            relation = make_relation(pmfs, certain={0: 2.0})
            state = ConfidenceState(relation)
            selector = CandidateSelector(relation, state)
            uncertain = relation.uncertain_positions()
            expected = selector.expected_confidences(
                uncertain, k_level=2, p_level=relation.grid.max_level)
            for i, position in enumerate(uncertain):
                brute = expected_confidence_bruteforce(
                    relation, int(position), k=1)
                assert expected[i] == pytest.approx(brute, abs=1e-10), \
                    f"trial {trial}"

    def test_expected_at_least_current_confidence(self):
        rng = np.random.default_rng(9)
        relation, state, selector = build_case(rng)
        p_hat = state.topk_prob(2)
        uncertain = relation.uncertain_positions()
        expected = selector.expected_confidences(uncertain, 2, 3)
        assert (expected >= p_hat - 1e-12).all(), \
            "cleaning can never reduce the expected confidence"


class TestUpperBound:
    def test_bound_dominates_expectation(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            relation, state, selector = build_case(rng)
            k_level, p_level = 2, 3
            uncertain = relation.uncertain_positions()
            expected = selector.expected_confidences(
                uncertain, k_level, p_level)
            p_hat = state.topk_prob(k_level)
            gamma = state.joint_cdf(p_level)
            psi = selector.psi(uncertain, k_level, p_level)
            bound = p_hat + gamma * psi
            assert (bound >= expected - 1e-9).all()

    def test_stale_psi_dominates_fresh_psi(self):
        """psi only shrinks as S_k / S_p grow (Equation 8)."""
        rng = np.random.default_rng(17)
        relation, state, selector = build_case(rng)
        uncertain = relation.uncertain_positions()
        stale = selector.psi(uncertain, 1, 2)
        fresh = selector.psi(uncertain, 2, 3)
        assert (stale >= fresh - 1e-12).all()


class TestSelection:
    def test_selects_argmax(self):
        rng = np.random.default_rng(21)
        relation, state, selector = build_case(rng, num_tuples=8)
        uncertain = relation.uncertain_positions()
        expected = selector.expected_confidences(uncertain, 2, 3)
        best = selector.select(
            0, 2, 3, batch_size=1, p_hat=state.topk_prob(2))
        assert best.size == 1
        assert expected[list(uncertain).index(best[0])] == pytest.approx(
            expected.max())

    def test_batch_selects_top_b(self):
        rng = np.random.default_rng(23)
        relation, state, selector = build_case(rng, num_tuples=10)
        uncertain = relation.uncertain_positions()
        expected = selector.expected_confidences(uncertain, 2, 3)
        batch = selector.select(
            0, 2, 3, batch_size=3, p_hat=state.topk_prob(2))
        top3 = set(uncertain[np.argsort(-expected)[:3]].tolist())
        assert set(batch.tolist()) == top3

    def test_exhaustive_matches_early_stopped(self):
        """The one early-stopped scan against the reference's
        exhaustive one."""
        rng = np.random.default_rng(29)
        for trial in range(5):
            pmfs = [rng.dirichlet(np.ones(4)) for _ in range(30)]
            relation_a, relation_b = (
                make_relation(pmfs, certain={0: 3.0, 1: 2.0})
                for _ in range(2))
            fast = CandidateSelector(relation_a, ConfidenceState(relation_a))
            slow = ReferenceSelector(
                relation_b, ReferenceConfidenceState(relation_b),
                SelectCandidateConfig(use_upper_bound=False))
            picked_fast = fast.select(
                0, 2, 3, batch_size=2, p_hat=fast.state.topk_prob(2))
            picked_slow = slow.select(0, 2, 3, batch_size=2)
            exp_fast = fast.expected_confidences(picked_fast, 2, 3)
            exp_slow = slow.expected_confidences(picked_slow, 2, 3)
            # Equal expectation (ties may swap identities).
            assert np.allclose(
                np.sort(exp_fast), np.sort(exp_slow), atol=1e-12), \
                f"trial {trial}"

    def test_skips_cleaned_tuples(self):
        rng = np.random.default_rng(31)
        relation, state, selector = build_case(rng, num_tuples=6)
        first = selector.select(
            0, 2, 3, batch_size=1, p_hat=state.topk_prob(2))
        state.remove_many([int(first[0])])
        second = selector.select(
            1, 2, 3, batch_size=1, p_hat=state.topk_prob(2))
        assert second[0] != first[0]

    def test_empty_when_all_certain(self):
        relation = make_relation(
            [[1.0, 0.0], [0.0, 1.0]], certain={0: 0.0, 1: 1.0})
        state = ConfidenceState(relation)
        selector = CandidateSelector(relation, state)
        assert selector.select(
            0, 1, 1, batch_size=4, p_hat=state.topk_prob(1)).size == 0

    def test_stats_track_examination(self):
        rng = np.random.default_rng(37)
        relation, state, selector = build_case(rng, num_tuples=20)
        selector.select(
            0, 2, 3, batch_size=1, p_hat=state.topk_prob(2))
        assert selector.stats.calls == 1
        assert selector.stats.frames_examined >= 1
        assert selector.stats.frames_available == 18

    def test_resort_schedule(self):
        rng = np.random.default_rng(41)
        relation, state, selector = build_case(rng, num_tuples=12)
        selector.select(
            0, 2, 3, batch_size=1, p_hat=state.topk_prob(2))
        assert selector.stats.resorts == 1
        # Within the warmup, iterations below resort_every reuse the
        # stale order.
        selector.select(
            1, 2, 3, batch_size=1, p_hat=state.topk_prob(2))
        assert selector.stats.resorts == 1
        selector.select(RESORT_EVERY, 2, 3, batch_size=1,
                        p_hat=state.topk_prob(2))
        assert selector.stats.resorts == 2
        # After the warmup, unchanged levels never trigger a resort...
        selector.select(RESORT_WARMUP + 1, 2, 3, batch_size=1,
                        p_hat=state.topk_prob(2))
        assert selector.stats.resorts == 2
        # ...but a change of S_k / S_p does.
        selector.select(RESORT_WARMUP + 2, 3, 3, batch_size=1,
                        p_hat=state.topk_prob(3))
        assert selector.stats.resorts == 3


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 0.5, 1.0, 1e-300]),
            st.floats(-1.0, 2.0, allow_subnormal=True)),
        min_size=1, max_size=700),
    count=st.one_of(
        st.integers(1, 12), st.just(_CHUNK + 1), st.integers(1, 800)),
)
def test_partition_pick_equals_the_full_stable_sort(values, count):
    """Ties (a few repeated values, +0.0 against -0.0) keep index order
    exactly as the full stable sort keeps them, at a batch's count, at
    a re-sort's head and at counts past the number of values."""
    values = np.asarray(values)
    expected = np.argsort(-values, kind="stable")[:count]
    assert top_indices(values, count).tolist() == expected.tolist()

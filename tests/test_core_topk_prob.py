"""Tests for Topk-prob: incremental confidence (Equations 2 and 3).

The key correctness property: the incrementally maintained joint CDF
must equal both (a) the direct Equation 2 product recomputed from
scratch and (b) the paper's Equation 1 evaluated by brute-force
possible-world enumeration.
"""

import numpy as np
import pytest

from repro.core.reference import topk_prob_bruteforce
from repro.core.topk_prob import ConfidenceState
from repro.errors import UncertainRelationError

from conftest import make_relation, with_certain


class TestPaperExample:
    """The running example from the paper (Tables 1a and 5)."""

    def test_top1_confidence_before_cleaning(self, tiny_relation):
        """Pr(f3 is Top-1) = Pr(S_f1 <= 1) * Pr(S_f2 <= 1) with the
        trimmed-view top-1 score of f3 being 1... the paper's 0.85
        comes from Pr(no other frame exceeds f3's most probable score).
        """
        state = ConfidenceState(tiny_relation)
        # If f3 were (hypothetically) certain at score 1, the answer
        # {f3} has confidence F_f1(1) * F_f2(1) = 0.99 * 0.91.
        relation = with_certain(tiny_relation, [2], [1.0])
        state = ConfidenceState(relation)
        assert state.topk_prob(1) == pytest.approx(0.99 * 0.91)

    def test_oracle_drop_example(self):
        """Cleaning f3 to score 0 (Table 5) drops the confidence of
        {f3} from 0.85 to 0.38 = 0.78 * 0.49."""
        relation = make_relation([
            [0.78, 0.21, 0.01],
            [0.49, 0.42, 0.09],
            [0.16, 0.48, 0.36],
        ], certain={2: 0.0})
        state = ConfidenceState(relation)
        assert state.topk_prob(0) == pytest.approx(0.78 * 0.49, abs=1e-12)


class TestConfidenceState:
    def test_no_uncertain_tuples_gives_one(self):
        relation = make_relation(
            [[1.0], [1.0]], certain={0: 0.0, 1: 0.0})
        state = ConfidenceState(relation)
        assert state.topk_prob(0) == 1.0

    def test_none_threshold_gives_zero(self, tiny_relation):
        state = ConfidenceState(tiny_relation)
        assert state.topk_prob(None) == 0.0

    def test_matches_direct_product(self, tiny_relation):
        state = ConfidenceState(tiny_relation)
        for level in range(3):
            assert state.joint_cdf(level) == pytest.approx(
                state.topk_prob_direct(level))

    def test_remove_updates_joint_cdf(self, tiny_relation):
        state = ConfidenceState(tiny_relation)
        before = state.joint_cdf(1)
        state.remove_many([0])
        after = state.joint_cdf(1)
        assert after == pytest.approx(before / tiny_relation.cdf[0, 1])
        assert state.num_uncertain == 2

    def test_remove_twice_rejected(self, tiny_relation):
        state = ConfidenceState(tiny_relation)
        state.remove_many([1])
        with pytest.raises(UncertainRelationError):
            state.remove_many([1])

    def test_remove_many_refuses_unsorted_duplicates(self, tiny_relation):
        state = ConfidenceState(tiny_relation)
        with pytest.raises(UncertainRelationError,
                           match="^batch positions must be unique$"):
            state.remove_many(np.array([2, 0, 2]))
        assert state.num_uncertain == 3  # refused whole
        state.remove_many(np.array([2, 0]))
        assert state.uncertain_mask.tolist() == [False, True, False]

    def test_zero_cdf_handling(self):
        """A frame with no mass below the threshold zeroes the joint
        CDF; removing it restores a positive value."""
        relation = make_relation([
            [0.0, 0.0, 1.0],   # certainly score 2
            [0.5, 0.5, 0.0],
        ])
        state = ConfidenceState(relation)
        assert state.joint_cdf(1) == 0.0
        assert state.log_joint_cdf(1) == float("-inf")
        state.remove_many([0])
        assert state.joint_cdf(1) == pytest.approx(1.0)

    def test_joint_cdf_excluding(self, tiny_relation):
        state = ConfidenceState(tiny_relation)
        positions = np.array([0, 1, 2])
        excl = state.joint_cdf_excluding_level(positions, 1)
        cdf = tiny_relation.cdf
        full = cdf[0, 1] * cdf[1, 1] * cdf[2, 1]
        for i in range(3):
            assert excl[i] == pytest.approx(full / cdf[i, 1])

    def test_joint_cdf_excluding_zero_safe(self):
        relation = make_relation([
            [0.0, 0.0, 1.0],
            [0.6, 0.4, 0.0],
        ])
        state = ConfidenceState(relation)
        excl = state.joint_cdf_excluding_level(np.array([0, 1]), 1)
        # Excluding the zero-CDF frame leaves 1.0; excluding the other
        # still contains the zero frame -> 0.
        assert excl[0] == pytest.approx(1.0)
        assert excl[1] == 0.0

    def test_incremental_matches_rebuild_after_cleans(self, tiny_relation):
        state = ConfidenceState(tiny_relation)
        state.remove_many([1])
        rebuilt = ConfidenceState(with_certain(tiny_relation, [1], [1.0]))
        for level in range(3):
            assert state.joint_cdf(level) == pytest.approx(
                rebuilt.joint_cdf(level))


class TestAgainstBruteForce:
    def test_eq2_equals_possible_world_semantics(self):
        """Equation 2's product equals Equation 1's world sum."""
        rng = np.random.default_rng(7)
        for trial in range(10):
            pmfs = [rng.dirichlet(np.ones(3)) for _ in range(4)]
            # Make one tuple certain; it is the Top-1 answer.
            relation = make_relation(pmfs, certain={0: 1.0})
            state = ConfidenceState(relation)
            fast = state.topk_prob(1)
            brute = topk_prob_bruteforce(relation, [0], 1)
            assert fast == pytest.approx(brute, abs=1e-12), f"trial {trial}"

    def test_topk2_against_brute_force(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            pmfs = [rng.dirichlet(np.ones(4)) for _ in range(5)]
            relation = make_relation(pmfs, certain={0: 3.0, 1: 2.0})
            state = ConfidenceState(relation)
            fast = state.topk_prob(2)  # threshold = K-th = score 2
            brute = topk_prob_bruteforce(relation, [0, 1], 2)
            assert fast == pytest.approx(brute, abs=1e-12), f"trial {trial}"

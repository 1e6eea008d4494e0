"""Tests for the quality metrics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.metrics import (
    evaluate_answer,
    kth_highest,
    precision_at_k,
    rank_distance,
    score_error,
)


@pytest.fixture
def scores():
    #              0    1    2    3    4    5    6
    return np.array([5.0, 3.0, 9.0, 1.0, 9.0, 7.0, 0.0])


class TestKthHighest:
    def test_values(self, scores):
        assert kth_highest(scores, 1) == 9.0
        assert kth_highest(scores, 2) == 9.0
        assert kth_highest(scores, 3) == 7.0
        assert kth_highest(scores, 7) == 0.0

    def test_out_of_range(self, scores):
        with pytest.raises(ConfigurationError):
            kth_highest(scores, 0)
        with pytest.raises(ConfigurationError):
            kth_highest(scores, 8)


class TestPrecision:
    def test_exact_answer(self, scores):
        assert precision_at_k([2, 4, 5], scores, 3) == 1.0

    def test_tie_aware(self, scores):
        """Either frame with score 9 is a valid Top-2 member."""
        assert precision_at_k([2, 4], scores, 2) == 1.0
        assert precision_at_k([4, 2], scores, 2) == 1.0

    def test_partial(self, scores):
        assert precision_at_k([2, 3], scores, 2) == 0.5

    def test_empty(self, scores):
        assert precision_at_k([], scores, 2) == 0.0


class TestRankDistance:
    def test_perfect_answer_zero(self, scores):
        assert rank_distance([2, 4, 5], scores, 3) == 0.0

    def test_tied_order_is_free(self, scores):
        assert rank_distance([4, 2], scores, 2) == 0.0

    def test_worse_answer_larger(self, scores):
        good = rank_distance([2, 4, 5], scores, 3)
        bad = rank_distance([3, 6, 1], scores, 3)
        assert bad > good

    def test_bounded(self, scores):
        value = rank_distance([6, 3, 1], scores, 3)
        assert 0.0 <= value <= 1.0

    def test_normalised_by_the_largest_displacement(self):
        """Each item can be displaced by at most n - 1 places: the old
        ``K * (n - K)`` normaliser read 17/16 here."""
        truth = np.array([2.0, 0.0, 2.0, 0.0, 1.0, 3.0, 2.0, 2.0])
        assert rank_distance([4, 3, 1, 5], truth, 4) == 17 / 28


class TestScoreError:
    def test_zero_for_exact(self, scores):
        assert score_error([9.0, 9.0, 7.0], scores, 3) == 0.0

    def test_positive_for_wrong(self, scores):
        assert score_error([9.0, 9.0, 0.0], scores, 3) == pytest.approx(
            7.0 / 3.0)

    def test_order_insensitive(self, scores):
        a = score_error([7.0, 9.0, 9.0], scores, 3)
        b = score_error([9.0, 9.0, 7.0], scores, 3)
        assert a == b


class TestEvaluateAnswer:
    def test_bundles_all_metrics(self, scores):
        metrics = evaluate_answer([2, 4, 5], scores, 3)
        assert metrics.precision == 1.0
        assert metrics.rank_distance == 0.0
        assert metrics.score_error == 0.0
        assert "precision=1.000" in metrics.as_row()

    def test_scrambled_answer_penalized(self, scores):
        metrics = evaluate_answer([6, 3, 1], scores, 3)
        assert metrics.precision == 0.0
        assert metrics.score_error > 0.0

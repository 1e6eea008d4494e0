"""Tests for the brute-force reference module and the report types."""

import numpy as np
import pytest

from repro.core.reference import (
    MAX_WORLDS,
    enumerate_worlds,
    expected_confidence_bruteforce,
    topk_prob_bruteforce,
)
from repro.core.result import PhaseBreakdown, QueryReport
from repro.errors import ConfigurationError

from conftest import make_relation


class TestEnumerateWorlds:
    def test_world_count_and_mass(self, tiny_relation):
        worlds = list(enumerate_worlds(tiny_relation))
        assert len(worlds) == 27  # 3^3
        total = sum(p for _, p in worlds)
        assert total == pytest.approx(1.0)

    def test_certain_tuple_single_outcome(self):
        relation = make_relation([
            [0.78, 0.21, 0.01],
            [0.49, 0.42, 0.09],
            [0.16, 0.48, 0.36],
        ], certain={0: 2.0})
        worlds = list(enumerate_worlds(relation))
        assert len(worlds) == 9  # 1 * 3 * 3
        assert all(levels[0] == 2 for levels, _ in worlds)

    def test_world_probabilities_product(self):
        relation = make_relation([[0.3, 0.7], [0.4, 0.6]])
        worlds = {tuple(l): p for l, p in enumerate_worlds(relation)}
        assert worlds[(0, 0)] == pytest.approx(0.12)
        assert worlds[(1, 1)] == pytest.approx(0.42)

    def test_explosion_guard(self):
        pmfs = [np.ones(10) / 10 for _ in range(8)]
        relation = make_relation(pmfs)
        with pytest.raises(ConfigurationError):
            list(enumerate_worlds(relation))


class TestBruteForceHelpers:
    def test_certain_relation_probability_one(self):
        relation = make_relation(
            [[1.0, 0.0], [0.0, 1.0]], certain={0: 1.0, 1: 0.0})
        assert topk_prob_bruteforce(relation, [0], 1) == pytest.approx(1.0)

    def test_expected_confidence_in_unit_interval(self):
        rng = np.random.default_rng(0)
        relation = make_relation(
            [rng.dirichlet(np.ones(3)) for _ in range(4)], certain={0: 2.0})
        value = expected_confidence_bruteforce(relation, 2, k=1)
        assert 0.0 <= value <= 1.0


class TestPhaseBreakdown:
    def test_phase_sums(self):
        breakdown = PhaseBreakdown(
            label_sample=10.0, cmdn_training=20.0, populate_d0=30.0,
            select_candidate=1.0, confirm_oracle=9.0)
        assert breakdown.phase1_seconds == 60.0
        assert breakdown.phase2_seconds == 10.0
        assert breakdown.total_seconds == 70.0

    def test_empty_breakdown(self):
        assert PhaseBreakdown().total_seconds == 0.0


class TestQueryReport:
    def _report(self, **overrides):
        defaults = dict(
            video_name="v", udf_name="count", k=5, thres=0.9,
            window_size=None, num_frames=1_000,
            answer_ids=[1, 2, 3, 4, 5],
            answer_scores=[9.0, 8.0, 7.0, 6.0, 5.0],
            confidence=0.93, iterations=10, cleaned=40,
            num_tuples=800, num_retained=800, oracle_calls=140,
            breakdown=PhaseBreakdown(
                label_sample=20.0, cmdn_training=10.0, populate_d0=50.0,
                select_candidate=0.5, confirm_oracle=19.5),
            scan_seconds=1_000.0,
        )
        defaults.update(overrides)
        return QueryReport(**defaults)

    def test_speedup(self):
        report = self._report()
        assert report.simulated_seconds == pytest.approx(100.0)
        assert report.speedup == pytest.approx(10.0)

    def test_cleaned_fraction(self):
        assert self._report().cleaned_fraction == pytest.approx(40 / 800)
        assert self._report(num_tuples=0).cleaned_fraction == 0.0

    def test_summary_mentions_kind(self):
        assert "frames" in self._report().summary()
        assert "windows" in self._report(window_size=30).summary()

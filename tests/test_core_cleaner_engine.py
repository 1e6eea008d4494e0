"""Integration tests: the Phase 2 cleaning loop and end-to-end queries."""

import numpy as np
import pytest

from repro.config import EverestConfig, Phase2Config
from repro.api import Session
from repro.core import TopKCleaner
from repro.core.cleaner import Phase2Result
from repro.errors import (
    GuaranteeUnreachableError,
    OracleBudgetExceededError,
    QueryError,
)
from repro.metrics import evaluate_answer
from repro.oracle import counting_udf
from repro.oracle.base import exact_scores

from conftest import make_relation


def topk(session, k, thres):
    return session.query().topk(k).guarantee(thres).run()


def make_clean_fn(true_scores):
    calls = []

    def clean_fn(ids):
        calls.append(list(ids))
        return np.asarray([true_scores[i] for i in ids], dtype=float)

    clean_fn.calls = calls
    return clean_fn


class TestCleanerUnit:
    def test_reaches_threshold(self):
        rng = np.random.default_rng(0)
        true = rng.integers(0, 4, size=20).astype(float)
        pmfs = []
        for score in true:
            pmf = np.full(5, 0.05)
            pmf[int(score)] += 0.8
            pmfs.append(pmf / pmf.sum())
        # Seed certainty on a few tuples (Phase 1 labels).
        relation = make_relation(
            pmfs, certain={position: true[position] for position in (0, 1, 2)})
        cleaner = TopKCleaner(
            relation, make_clean_fn(true), Phase2Config(batch_size=2))
        result = cleaner.run(k=3, thres=0.9)
        assert result.confidence >= 0.9
        assert len(result.answer_ids) == 3

    def test_answer_is_exact_under_high_threshold(self):
        rng = np.random.default_rng(1)
        true = rng.integers(0, 6, size=30).astype(float)
        pmfs = []
        for score in true:
            pmf = np.full(7, 0.02)
            pmf[int(score)] += 0.5
            # Adversarial: also place mass on a wrong level.
            pmf[(int(score) + 3) % 7] += 0.36
            pmfs.append(pmf / pmf.sum())
        relation = make_relation(
            pmfs, certain={position: true[position] for position in range(3)})
        cleaner = TopKCleaner(
            relation, make_clean_fn(true), Phase2Config(batch_size=1))
        result = cleaner.run(k=3, thres=0.99)
        kth = np.sort(true)[::-1][2]
        assert all(true[i] >= kth for i in result.answer_ids), \
            "a 0.99-confidence answer on exact-proxy data must be exact"

    def test_certain_result_condition(self):
        """Every returned frame has an oracle-confirmed score."""
        rng = np.random.default_rng(2)
        true = rng.integers(0, 4, size=15).astype(float)
        pmfs = [np.ones(5) / 5 for _ in true]
        relation = make_relation(pmfs, certain={0: true[0], 1: true[1]})
        cleaner = TopKCleaner(relation, make_clean_fn(true), Phase2Config())
        result = cleaner.run(k=2, thres=0.8)
        for frame, score in zip(result.answer_ids, result.answer_scores):
            position = relation.position(frame)
            assert cleaner.certain[position]
            assert score == true[frame]

    def test_bootstrap_when_too_few_certain(self):
        true = np.array([3.0, 1.0, 2.0, 0.0, 4.0])
        pmfs = [np.ones(5) / 5 for _ in true]
        relation = make_relation(pmfs)  # nothing certain
        cleaner = TopKCleaner(relation, make_clean_fn(true), Phase2Config())
        result = cleaner.run(k=2, thres=0.5)
        assert result.confidence >= 0.5
        assert cleaner.num_certain >= 2

    def test_relation_smaller_than_k(self):
        relation = make_relation([[0.5, 0.5]])
        cleaner = TopKCleaner(
            relation, make_clean_fn({0: 1.0}), Phase2Config())
        with pytest.raises(GuaranteeUnreachableError):
            cleaner.run(k=5, thres=0.5)

    def test_invalid_parameters(self, tiny_relation):
        cleaner = TopKCleaner(
            tiny_relation, make_clean_fn({}), Phase2Config())
        with pytest.raises(QueryError):
            cleaner.run(k=0, thres=0.5)
        with pytest.raises(QueryError):
            cleaner.run(k=1, thres=1.5)

    def test_fully_cleaned_relation_confidence_one(self):
        true = np.array([2.0, 0.0, 1.0])
        pmfs = [np.ones(3) / 3 for _ in true]
        relation = make_relation(pmfs)
        cleaner = TopKCleaner(relation, make_clean_fn(true), Phase2Config())
        result = cleaner.run(k=1, thres=1.0)
        assert result.confidence == 1.0
        assert result.answer_ids == [0]

    def test_confidence_trace_recorded(self):
        rng = np.random.default_rng(3)
        true = rng.integers(0, 4, size=12).astype(float)
        pmfs = [np.ones(5) / 5 for _ in true]
        relation = make_relation(pmfs, certain={0: true[0], 1: true[1]})
        cleaner = TopKCleaner(relation, make_clean_fn(true), Phase2Config())
        result = cleaner.run(k=2, thres=0.9)
        assert len(result.confidence_trace) == result.iterations + 1
        assert result.confidence_trace[-1] >= 0.9


class TestEngineEndToEnd:
    @pytest.fixture(scope="class")
    def engine(self, traffic_video, fast_config):
        return Session(
            traffic_video, counting_udf("car"), config=fast_config)

    def test_meets_probabilistic_guarantee(self, engine):
        report = topk(engine, k=5, thres=0.9)
        assert report.confidence >= 0.9
        assert len(report.answer_ids) == 5

    def test_answer_scores_are_exact(self, engine, traffic_video):
        report = topk(engine, k=5, thres=0.9)
        for frame, score in zip(report.answer_ids, report.answer_scores):
            assert score == traffic_video.true_count(frame)

    def test_high_precision(self, engine, traffic_video):
        report = topk(engine, k=10, thres=0.9)
        truth = traffic_video.counts.astype(float)
        metrics = evaluate_answer(report.answer_ids, truth, 10)
        assert metrics.precision >= 0.9

    def test_speedup_positive_and_cost_accounted(self, engine):
        report = topk(engine, k=5, thres=0.9)
        assert report.simulated_seconds > 0
        assert report.scan_seconds > report.simulated_seconds * 0.5
        assert report.breakdown.phase1_seconds > 0
        assert report.breakdown.confirm_oracle >= 0

    def test_cleans_only_a_fraction(self, engine):
        report = topk(engine, k=5, thres=0.9)
        assert report.cleaned_fraction < 0.5

    def test_phase1_cached_across_queries(self, engine):
        first = topk(engine, k=5, thres=0.9)
        second = topk(engine, k=10, thres=0.9)
        assert first.breakdown.label_sample == pytest.approx(
            second.breakdown.label_sample)

    def test_lower_threshold_not_more_work(self, engine):
        strict = topk(engine, k=5, thres=0.95)
        loose = topk(engine, k=5, thres=0.5)
        assert loose.cleaned <= strict.cleaned

    def test_oracle_budget_enforced(self, traffic_video, fast_config):
        from dataclasses import replace
        config = replace(
            fast_config, phase2=Phase2Config(oracle_budget=3))
        engine = Session(
            traffic_video, counting_udf("car"), config=config)
        with pytest.raises(OracleBudgetExceededError):
            topk(engine, k=20, thres=0.99)

    def test_summary_renders(self, engine):
        report = topk(engine, k=5, thres=0.9)
        text = report.summary()
        assert "Top-5" in text and "speedup" in text

    def test_tailgating_udf_end_to_end(self, dashcam_video, fast_config):
        from repro.oracle import tailgating_udf
        scoring = tailgating_udf()
        engine = Session(dashcam_video, scoring, config=fast_config)
        report = topk(engine, k=5, thres=0.9)
        truth = exact_scores(scoring, dashcam_video)
        metrics = evaluate_answer(report.answer_ids, truth, 5)
        assert report.confidence >= 0.9
        assert metrics.precision >= 0.6

    def test_sentiment_udf_end_to_end(self, sentiment_video, fast_config):
        from repro.oracle import sentiment_udf
        scoring = sentiment_udf()
        engine = Session(sentiment_video, scoring, config=fast_config)
        report = topk(engine, k=5, thres=0.9)
        assert report.confidence >= 0.9

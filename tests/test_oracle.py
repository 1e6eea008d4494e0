"""Tests for the oracle substrate: cost model, UDFs and detectors."""

import numpy as np
import pytest

from repro.api import Session
from repro.errors import ConfigurationError, OracleBudgetExceededError
from repro.oracle import (
    CostModel,
    DetectorErrorModel,
    Oracle,
    SimulatedDepthEstimator,
    SimulatedObjectDetector,
    SimulatedSentimentalizer,
    counting_udf,
    merge_cost_models,
    sentiment_udf,
    tailgating_udf,
)
from repro.oracle.base import ScoringFunction, exact_scores


class TestCostModel:
    def test_charge_accumulates(self):
        cost = CostModel()
        cost.charge("oracle_infer", 10)
        assert cost.units("oracle_infer") == 10
        assert cost.seconds("oracle_infer") == pytest.approx(2.0)

    def test_unknown_key_free(self):
        cost = CostModel()
        assert cost.charge("unknown_key", 5) == 0.0

    def test_overrides(self):
        cost = CostModel({"oracle_infer": 1.0})
        cost.charge("oracle_infer", 3)
        assert cost.total_seconds() == pytest.approx(3.0)

    def test_breakdown_sorted(self):
        cost = CostModel()
        cost.charge("decode", 10)
        cost.charge("oracle_infer", 10)
        keys = list(cost.breakdown())
        assert keys[0] == "oracle_infer"

    def test_breakdown_sums_to_the_total(self):
        cost = CostModel()
        cost.charge("decode", 5)
        cost.charge("oracle_infer", 5)
        assert sum(cost.breakdown().values()) == cost.total_seconds()
        assert CostModel().breakdown() == {}

    def test_a_merged_ledger_is_independent(self):
        cost = CostModel()
        cost.charge("decode", 5)
        clone = merge_cost_models([cost])
        cost.charge("decode", 2)
        assert clone.units("decode") == 5
        assert cost.units("decode") == 7

    def test_negative_rejected(self):
        cost = CostModel()
        with pytest.raises(ConfigurationError):
            cost.charge("decode", -1)
        with pytest.raises(ConfigurationError):
            CostModel({"decode": -0.1})

    def test_scan_cost(self, traffic_video):
        # Scan-and-test decodes and oracle-scores every frame.
        session = Session(traffic_video, counting_udf("car"))
        assert session.scan_seconds() == pytest.approx(
            len(traffic_video) * 0.2003)


class TestOracle:
    def test_scores_match_truth(self, traffic_video):
        oracle = Oracle(counting_udf("car"), CostModel())
        indices = [3, 99, 500]
        scores = oracle.score(traffic_video, indices)
        expected = [traffic_video.true_count(i) for i in indices]
        assert scores.tolist() == expected

    def test_charges_per_frame(self, traffic_video):
        cost = CostModel()
        oracle = Oracle(counting_udf("car"), cost)
        oracle.score(traffic_video, [1, 2, 3, 4])
        assert cost.units("oracle_infer") == 4
        assert oracle.calls == 4

    def test_cost_key_override(self, traffic_video):
        cost = CostModel({"oracle_label": 0.5})
        oracle = Oracle(counting_udf("car"), cost, cost_key="oracle_label")
        oracle.score(traffic_video, [0])
        assert cost.seconds("oracle_label") == pytest.approx(0.5)
        assert cost.units("oracle_infer") == 0

    def test_budget_enforced(self, traffic_video):
        oracle = Oracle(counting_udf("car"), CostModel(), budget=3)
        oracle.score(traffic_video, [0, 1])
        with pytest.raises(OracleBudgetExceededError):
            oracle.score(traffic_video, [2, 3])

    def test_exact_scores_fast_path(self, traffic_video):
        scoring = counting_udf("car")
        fast = exact_scores(scoring, traffic_video)
        assert np.array_equal(fast, traffic_video.counts.astype(float))

    def test_exact_scores_label_mismatch(self, traffic_video):
        scoring = counting_udf("giraffe")
        assert exact_scores(scoring, traffic_video).sum() == 0.0


class TestDetector:
    def test_perfect_detection(self, traffic_video):
        detector = SimulatedObjectDetector("car")
        frame = traffic_video.frame(200)
        assert len(detector.detect(frame)) == traffic_video.true_count(200)

    def test_label_filtering(self, traffic_video):
        detector = SimulatedObjectDetector("person")
        frame = traffic_video.frame(200)
        persons = [b for b in frame.objects if b.label == "person"]
        assert len(detector.detect(frame)) == len(persons)

    def test_miss_rate_reduces_counts(self, traffic_video):
        lossy = SimulatedObjectDetector(
            "car", DetectorErrorModel(miss_rate=0.9, seed=1))
        exact = SimulatedObjectDetector("car")
        frames = [traffic_video.frame(i) for i in range(0, 600, 10)]
        lossy_total = sum(len(lossy.detect(f)) for f in frames)
        exact_total = sum(len(exact.detect(f)) for f in frames)
        assert lossy_total < exact_total * 0.5

    def test_false_positives_add_counts(self):
        from repro.video import TrafficVideo
        empty = TrafficVideo(
            "empty", 200, seed=1, base_level=0.0, burst_amplitude=0.0,
            distractor_mean=0.0)
        noisy = SimulatedObjectDetector(
            "car", DetectorErrorModel(false_positive_rate=2.0, seed=2))
        total = sum(len(noisy.detect(empty.frame(i))) for i in range(100))
        assert total > 50

    def test_deterministic_noise(self, traffic_video):
        model = DetectorErrorModel(miss_rate=0.5, seed=5)
        a = SimulatedObjectDetector("car", model)
        b = SimulatedObjectDetector("car", model)
        frame = traffic_video.frame(100)
        assert len(a.detect(frame)) == len(b.detect(frame))

    def test_invalid_error_model(self):
        with pytest.raises(ConfigurationError):
            DetectorErrorModel(miss_rate=1.5)
        with pytest.raises(ConfigurationError):
            DetectorErrorModel(false_positive_rate=-1)


class TestDepthAndSentiment:
    def test_depth_reads_truth(self, dashcam_video):
        estimator = SimulatedDepthEstimator()
        frame = dashcam_video.frame(42)
        assert estimator.distance(frame) == dashcam_video.true_distance(42)

    def test_tailgating_udf_inverts_distance(self, dashcam_video):
        scoring = tailgating_udf(max_distance=60.0)
        scores = exact_scores(scoring, dashcam_video)
        # Most dangerous frame = closest approach.
        assert int(np.argmax(scores)) == int(np.argmin(
            dashcam_video.distances))

    def test_tailgating_quantization_metadata(self):
        scoring = tailgating_udf(quantization_step=0.5)
        assert scoring.quantization_step == 0.5
        assert not scoring.integer_valued
        assert scoring.step == 0.5

    def test_non_finite_score_floor_is_refused(self):
        with pytest.raises(ConfigurationError, match="score_floor"):
            ScoringFunction("floorless", lambda frames: np.zeros(
                len(frames)), score_floor=float("-inf"))

    def test_counting_udf_is_integer_valued(self):
        scoring = counting_udf("car")
        assert scoring.integer_valued
        assert scoring.step == 1.0

    def test_sentiment_udf(self, sentiment_video):
        scoring = sentiment_udf()
        scores = exact_scores(scoring, sentiment_video)
        assert np.allclose(scores, sentiment_video.happiness)

    def test_sentimentalizer_clips_noise(self, sentiment_video):
        noisy = SimulatedSentimentalizer(noise_std=5.0, seed=1)
        values = [noisy.happiness(sentiment_video.frame(i))
                  for i in range(50)]
        assert all(0.0 <= v <= 1.0 for v in values)

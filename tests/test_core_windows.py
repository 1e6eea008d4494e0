"""Tests for Top-K tumbling windows (paper Section 3.4, Equation 9)."""

import numpy as np
import pytest

from repro.config import EverestConfig
from repro.api import Session
from repro.core.windows import (
    WindowCleaner,
    build_window_relation,
    num_windows,
    window_bounds,
    window_truth,
)
from repro.errors import ConfigurationError, QueryError
from repro.metrics import evaluate_answer
from repro.models import GaussianMixture
from repro.oracle import CostModel, Oracle, counting_udf
from repro.video.diff import DiffResult


def identity_diff(num_frames):
    """A diff result that retained every frame."""
    return DiffResult(
        retained=np.arange(num_frames),
        representative=np.arange(num_frames),
        num_frames=num_frames,
    )


class TestWindowHelpers:
    def test_num_windows_ragged(self):
        assert num_windows(100, 30) == 4
        assert num_windows(90, 30) == 3
        with pytest.raises(ConfigurationError):
            num_windows(10, 0)

    def test_window_bounds(self):
        assert window_bounds(0, 30, 100) == (0, 30)
        assert window_bounds(3, 30, 100) == (90, 100)

    def test_window_truth_averages(self):
        truth = np.arange(10.0)
        scores = window_truth(truth, 5)
        assert scores.tolist() == [2.0, 7.0]

    def test_window_truth_ragged(self):
        truth = np.array([1.0, 2.0, 3.0])
        scores = window_truth(truth, 2)
        assert scores.tolist() == [1.5, 3.0]


class TestEquation9:
    def test_moment_aggregation_all_retained(self):
        """With every frame retained, Eq. 9's window mean must equal
        the average of frame mixture means and the variance the
        1/L-weighted sum of frame variances."""
        n = 6
        mu = np.arange(n, dtype=float)[:, None]
        sigma = np.full((n, 1), 0.3)
        mixtures = GaussianMixture(pi=np.ones((n, 1)), mu=mu, sigma=sigma)
        relation = build_window_relation(
            mixtures, np.arange(n), identity_diff(n),
            window_size=3, floor=0.0, step=0.1)
        assert len(relation) == 2
        expected = relation.expected_scores()
        assert expected[0] == pytest.approx(1.0, abs=0.1)
        assert expected[1] == pytest.approx(4.0, abs=0.1)

    def test_segment_weighting(self):
        """Discarded frames inherit their representative's moments with
        segment-length weights."""
        n = 4
        mixtures = GaussianMixture(
            pi=np.ones((2, 1)),
            mu=np.array([[0.0], [8.0]]),
            sigma=np.ones((2, 1)) * 0.5,
        )
        # Frames 0,1 map to retained 0; frames 2,3 to retained 2.
        diff = DiffResult(
            retained=np.array([0, 2]),
            representative=np.array([0, 0, 2, 2]),
            num_frames=n,
        )
        relation = build_window_relation(
            mixtures, np.array([0, 2]), diff,
            window_size=4, floor=0.0, step=0.1)
        # Window mean = (2*0 + 2*8)/4 = 4.
        assert relation.expected_scores()[0] == pytest.approx(4.0, abs=0.1)

    def test_misaligned_mixtures_rejected(self):
        mixtures = GaussianMixture(
            pi=np.ones((2, 1)), mu=np.zeros((2, 1)), sigma=np.ones((2, 1)))
        with pytest.raises(ConfigurationError):
            build_window_relation(
                mixtures, np.arange(3), identity_diff(3),
                window_size=2, floor=0.0, step=0.1)


class TestWindowCleaner:
    def test_sampled_confirmation(self, traffic_video):
        cost = CostModel()
        oracle = Oracle(counting_udf("car"), cost)
        cleaner = WindowCleaner(
            video=traffic_video, oracle=oracle, window_size=30)
        scores = cleaner([0, 1])
        assert scores.shape == (2,)
        # 10% of 30 frames = 3 per window.
        assert oracle.calls == 6

    def test_sample_mean_near_true_mean(self, traffic_video):
        """A window's score is the mean of its sampled frames' scores."""
        oracle = Oracle(counting_udf("car"), CostModel())
        cleaner = WindowCleaner(
            video=traffic_video, oracle=oracle, window_size=30)
        counts = traffic_video.counts.astype(float)
        scores = cleaner([2])
        assert scores[0] == pytest.approx(
            counts[cleaner.frames_for(2)].mean())

    def test_frames_within_bounds(self, traffic_video):
        oracle = Oracle(counting_udf("car"), CostModel())
        cleaner = WindowCleaner(
            video=traffic_video, oracle=oracle, window_size=30)
        frames = cleaner.frames_for(3)
        assert (frames >= 90).all() and (frames < 120).all()

    def test_deterministic_sampling(self, traffic_video):
        oracle = Oracle(counting_udf("car"), CostModel())
        a = WindowCleaner(
            video=traffic_video, oracle=oracle, window_size=30, seed=5)
        b = WindowCleaner(
            video=traffic_video, oracle=oracle, window_size=30, seed=5)
        assert np.array_equal(a.frames_for(1), b.frames_for(1))


class TestWindowQueries:
    def test_window_query_end_to_end(self, traffic_video, fast_config):
        session = Session(
            traffic_video, counting_udf("car"), config=fast_config)
        report = (session.query().windows(size=30)
                  .topk(5).guarantee(0.9).run())
        assert report.confidence >= 0.9
        assert report.window_size == 30
        truth = window_truth(traffic_video.counts.astype(float), 30)
        metrics = evaluate_answer(report.answer_ids, truth, 5)
        assert metrics.precision >= 0.6  # sampling jitter allowed

    def test_window_size_one_delegates_to_frames(
            self, traffic_video, fast_config):
        session = Session(
            traffic_video, counting_udf("car"), config=fast_config)
        report = (session.query().windows(size=1)
                  .topk(5).guarantee(0.9).run())
        assert report.window_size is None

    def test_invalid_window_size(self, traffic_video, fast_config):
        session = Session(
            traffic_video, counting_udf("car"), config=fast_config)
        with pytest.raises(QueryError):
            session.query().windows(size=0)

    def test_window_ids_in_range(self, traffic_video, fast_config):
        session = Session(
            traffic_video, counting_udf("car"), config=fast_config)
        report = (session.query().windows(size=50)
                  .topk(5).guarantee(0.9).run())
        count = num_windows(len(traffic_video), 50)
        assert all(0 <= w < count for w in report.answer_ids)

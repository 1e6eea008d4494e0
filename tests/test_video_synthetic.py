"""Unit tests for the synthetic video substrate."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, FrameIndexError
from repro.video import (
    DashcamVideo,
    ObjectCountProcess,
    SentimentVideo,
    TrafficVideo,
)


class TestObjectCountProcess:
    def test_length_and_bounds(self):
        process = ObjectCountProcess(5_000, max_objects=9, seed=1)
        assert len(process) == 5_000
        assert process.counts.min() >= 0
        assert process.counts.max() <= 9

    def test_deterministic_per_seed(self):
        a = ObjectCountProcess(1_000, seed=7)
        b = ObjectCountProcess(1_000, seed=7)
        assert np.array_equal(a.counts, b.counts)

    def test_different_seeds_differ(self):
        a = ObjectCountProcess(1_000, seed=7)
        b = ObjectCountProcess(1_000, seed=8)
        assert not np.array_equal(a.counts, b.counts)

    def test_temporal_autocorrelation(self):
        counts = ObjectCountProcess(10_000, seed=3).counts.astype(float)
        lag1 = np.corrcoef(counts[:-1], counts[1:])[0, 1]
        assert lag1 > 0.8, "counts must be strongly autocorrelated"

    def test_bursts_create_heavy_tail(self):
        counts = ObjectCountProcess(20_000, seed=5).counts
        p99 = np.percentile(counts, 99)
        median = np.median(counts)
        assert p99 >= median + 2, "peaks should be rare and high"

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            ObjectCountProcess(0)
        with pytest.raises(ConfigurationError):
            ObjectCountProcess(10, ar_coefficient=1.5)
        with pytest.raises(ConfigurationError):
            ObjectCountProcess(10, max_objects=0)

    def test_getitem(self):
        process = ObjectCountProcess(100, seed=1)
        assert process[5] == int(process.counts[5])


class TestTrafficVideo:
    def test_basic_shape(self, traffic_video):
        assert len(traffic_video) == 1_500
        frame = traffic_video.frame(10)
        assert frame.pixels.shape == (24, 24)
        assert frame.pixels.min() >= 0.0
        assert frame.pixels.max() <= 1.0
        assert frame.index == 10

    def test_truth_matches_counts(self, traffic_video):
        for i in (0, 100, 1_499):
            assert traffic_video.frame(i).truth["count"] == \
                traffic_video.counts[i]

    def test_objects_match_count(self, traffic_video):
        for i in (0, 250, 900):
            labelled = [
                b for b in traffic_video.objects(i)
                if b.label == traffic_video.object_label
            ]
            assert len(labelled) == traffic_video.true_count(i)

    def test_distractors_not_counted(self):
        video = TrafficVideo("d", 300, seed=9, distractor_mean=2.0)
        i = int(np.argmax(video.distractor_counts))
        labels = {b.label for b in video.objects(i)}
        assert "person" in labels  # distractors exist
        cars = [b for b in video.objects(i) if b.label == "car"]
        assert len(cars) == video.true_count(i)

    def test_rendering_deterministic(self, traffic_video):
        a = traffic_video.pixels(77)
        b = traffic_video.pixels(77)
        assert np.array_equal(a, b)

    def test_consecutive_frames_similar(self, traffic_video):
        a = traffic_video.pixels(500)
        b = traffic_video.pixels(501)
        mse = float(np.mean((a - b) ** 2))
        assert mse < 0.01

    def test_pixels_predict_count(self, traffic_video):
        """Foreground mass must correlate with the count."""
        idx = np.arange(0, 1_500, 5)
        pixels = traffic_video.batch_pixels(idx)
        mass = pixels.reshape(len(idx), -1).mean(axis=1)
        corr = np.corrcoef(mass, traffic_video.counts[idx])[0, 1]
        assert corr > 0.5

    def test_out_of_range_raises(self, traffic_video):
        with pytest.raises(FrameIndexError):
            traffic_video.frame(1_500)
        with pytest.raises(FrameIndexError):
            traffic_video.pixels(-1)

    def test_batch_pixels_stacks(self, traffic_video):
        batch = traffic_video.batch_pixels([1, 2, 3])
        assert batch.shape == (3, 24, 24)
        assert batch.dtype == np.float32

    def test_batch_pixels_empty(self, traffic_video):
        batch = traffic_video.batch_pixels([])
        assert batch.shape == (0, 24, 24)

    def test_truth_array(self, traffic_video):
        truth = traffic_video.truth_array()
        assert truth.shape == (1_500,)
        assert np.array_equal(truth, traffic_video.counts.astype(float))

    def test_count_process_length_mismatch_rejected(self):
        process = ObjectCountProcess(100, seed=1)
        with pytest.raises(ConfigurationError):
            TrafficVideo("bad", 200, count_process=process)

    def test_iteration(self):
        video = TrafficVideo("small", 5, seed=2)
        frames = list(video)
        assert [f.index for f in frames] == [0, 1, 2, 3, 4]


class TestDashcamVideo:
    def test_distance_bounds(self, dashcam_video):
        assert dashcam_video.distances.min() >= dashcam_video.min_distance
        assert dashcam_video.distances.max() <= dashcam_video.max_distance

    def test_has_close_approach_episodes(self, dashcam_video):
        assert dashcam_video.distances.min() < 10.0

    def test_truth_and_accessor_agree(self, dashcam_video):
        assert dashcam_video.frame(5).truth["distance"] == \
            dashcam_video.true_distance(5)

    def test_pixels_predict_distance(self, dashcam_video):
        idx = np.arange(0, len(dashcam_video), 5)
        pixels = dashcam_video.batch_pixels(idx)
        mass = pixels.reshape(len(idx), -1).mean(axis=1)
        corr = np.corrcoef(mass, dashcam_video.distances[idx])[0, 1]
        assert corr < -0.5, "closer vehicle -> bigger blob -> more mass"

    def test_invalid_distances_rejected(self):
        with pytest.raises(ConfigurationError):
            DashcamVideo("bad", 100, mean_distance=1.0, min_distance=2.0)


class TestSentimentVideo:
    def test_happiness_in_unit_interval(self, sentiment_video):
        assert sentiment_video.happiness.min() >= 0.0
        assert sentiment_video.happiness.max() <= 1.0

    def test_truth_key(self, sentiment_video):
        frame = sentiment_video.frame(3)
        assert frame.truth["happiness"] == sentiment_video.happiness[3]

    def test_pixels_predict_happiness(self, sentiment_video):
        idx = np.arange(0, len(sentiment_video), 4)
        pixels = sentiment_video.batch_pixels(idx)
        mass = pixels.reshape(len(idx), -1).mean(axis=1)
        corr = np.corrcoef(mass, sentiment_video.happiness[idx])[0, 1]
        assert corr > 0.8


class TestValidation:
    def test_rejects_zero_frames(self):
        with pytest.raises(ConfigurationError):
            TrafficVideo("bad", 0)

    def test_rejects_tiny_resolution(self):
        with pytest.raises(ConfigurationError):
            TrafficVideo("bad", 10, resolution=(2, 2))

    def test_rejects_bad_fps(self):
        with pytest.raises(ConfigurationError):
            TrafficVideo("bad", 10, fps=0)

    @pytest.mark.parametrize(
        "generator", [TrafficVideo, DashcamVideo, SentimentVideo])
    @pytest.mark.parametrize("keywords", [
        {"noise_level": float("nan")}, {"noise_level": -0.01},
        {"noise_level": float("inf")}, {"noise_level": -float("inf")},
        {"seed": -1}], ids=["nan", "negative", "inf", "-inf", "seed-1"])
    def test_rejects_bad_noise_level_and_seed(self, generator, keywords):
        with pytest.raises(ConfigurationError):
            generator("bad", 600, **keywords)

    @pytest.mark.parametrize("name", ["traffic", "dashcam", "vlog"])
    @pytest.mark.parametrize("keywords", [
        {"noise_level": float("nan")}, {"noise_level": -0.01},
        {"noise_level": float("inf")}, {"seed": -1}],
        ids=["nan", "negative", "inf", "seed-1"])
    def test_registry_rejects_bad_noise_level_and_seed(self, name, keywords):
        from repro.api.registry import resolve_video
        with pytest.raises(ConfigurationError):
            resolve_video(name, num_frames=600, **keywords)

    def test_noiseless_video_is_its_scenes(self):
        video = TrafficVideo("clean", 50, noise_level=0.0, seed=3)
        ids = np.arange(50)
        expected = np.clip(video._scenes(ids), 0.0, 1.0).astype(np.float32)
        assert video.batch_pixels(ids).tobytes() == expected.tobytes()

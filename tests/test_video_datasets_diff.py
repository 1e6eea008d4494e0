"""Tests for the dataset registry, Visual Road suite and difference
detector."""

import numpy as np
import pytest

from repro.config import DiffDetectorConfig
from repro.errors import ConfigurationError
from repro.video import (
    DATASETS,
    DifferenceDetector,
    TrafficVideo,
    build_dataset,
    dataset_table,
    visual_road_suite,
    visual_road_video,
)
from repro.video.datasets import COUNTING_DATASETS, DASHCAM_DATASETS


class TestDatasets:
    def test_registry_mirrors_table7(self):
        assert len(COUNTING_DATASETS) == 5
        assert len(DASHCAM_DATASETS) == 2
        assert set(DATASETS) == set(COUNTING_DATASETS) | set(DASHCAM_DATASETS)

    def test_paper_metadata(self):
        taipei = DATASETS["taipei-bus"]
        assert taipei.paper_frames == 32_488_000
        assert taipei.paper_hours == 300.8
        assert taipei.object_of_interest == "car"

    def test_build_counting(self):
        video = build_dataset("archie", 1 / 1000, min_frames=1_000)
        assert video.name == "archie"
        assert len(video) == 2_130
        assert video.object_label == "car"

    def test_build_dashcam(self):
        video = build_dataset(
            "dashcam-california", 1 / 500, min_frames=100)
        assert hasattr(video, "distances")
        assert len(video) == 648

    def test_min_frames_floor(self):
        video = build_dataset("archie", 1e-9, min_frames=500)
        assert len(video) == 500

    def test_unknown_dataset(self):
        with pytest.raises(ConfigurationError, match="unknown dataset"):
            build_dataset("nope")

    def test_relative_sizes_preserved(self):
        scale = 1 / 500
        taipei = DATASETS["taipei-bus"].scaled_frames(scale, 1)
        archie = DATASETS["archie"].scaled_frames(scale, 1)
        ratio = taipei / archie
        paper_ratio = 32_488_000 / 2_130_000
        assert abs(ratio - paper_ratio) / paper_ratio < 0.01

    def test_dataset_table_renders(self):
        table = dataset_table()
        assert "taipei-bus" in table
        assert "1920x1080" in table
        assert len(table.splitlines()) == 2 + len(DATASETS)


class TestVisualRoad:
    def test_suite_shares_scene(self):
        suite = visual_road_suite((50, 250), num_frames=600)
        assert [v.name for v in suite] == \
            ["visual-road-50", "visual-road-250"]
        # Same camera/scene: identical trajectory parameters.
        assert np.array_equal(
            suite[0]._populations[0].speed_x[:4],
            suite[1]._populations[0].speed_x[:4])

    def test_density_scales_visible_counts(self):
        low = visual_road_video(50, num_frames=4_000)
        high = visual_road_video(250, num_frames=4_000)
        assert high.counts.mean() > 2 * low.counts.mean()

    def test_concatenated_clips(self):
        video = visual_road_video(100, num_frames=1_000, num_clips=4)
        assert len(video) == 1_000

    def test_rejects_bad_density(self):
        with pytest.raises(ConfigurationError):
            visual_road_video(0)


class TestDifferenceDetector:
    def test_static_video_collapses(self):
        video = TrafficVideo(
            "static", 300, seed=1, noise_level=0.0,
            base_level=0.0, burst_amplitude=0.0, noise_scale=0.0,
            illumination_amplitude=0.0, distractor_mean=0.0)
        result = DifferenceDetector().run(video)
        # One retained representative per clip of 30 frames.
        assert result.num_retained == 300 // 30

    def test_zero_threshold_retains_everything(self, traffic_video):
        config = DiffDetectorConfig(mse_threshold=0.0)
        result = DifferenceDetector(config).run(traffic_video)
        assert result.num_retained == result.num_frames == len(traffic_video)

    def test_representative_is_retained(self, traffic_video):
        result = DifferenceDetector().run(traffic_video)
        retained = set(result.retained.tolist())
        for i in range(0, len(traffic_video), 37):
            assert int(result.representative[i]) in retained

    def test_retained_map_to_themselves(self, traffic_video):
        result = DifferenceDetector().run(traffic_video)
        for frame in result.retained[:50]:
            assert result.representative[frame] == frame

    def test_segments_partition_video(self, traffic_video):
        # The window model (Section 3.4) weighs each maximal run of
        # frames sharing a representative as that one retained frame.
        result = DifferenceDetector().run(traffic_video)
        representative = result.representative
        assert representative.size == len(traffic_video)
        starts = np.flatnonzero(np.diff(representative, prepend=-1))
        assert np.isin(representative[starts], result.retained).all()

    def test_discards_near_duplicates(self, traffic_video):
        result = DifferenceDetector().run(traffic_video)
        assert 0 < result.num_retained < result.num_frames


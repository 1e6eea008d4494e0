""":mod:`repro.video.visual_road` — the Figure 8 density suite and its
concatenated count process."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.video.visual_road import (
    PAPER_DENSITIES,
    _ConcatenatedCountProcess,
    visual_road_suite,
    visual_road_video,
)


class TestVisualRoad:
    def test_suite_matches_paper_densities(self):
        suite = visual_road_suite(num_frames=300)
        assert [v.name for v in suite] == [
            f"visual-road-{cars}" for cars in PAPER_DENSITIES]
        assert all(len(v) == 300 for v in suite)

    def test_density_scales_mean_visible_count(self):
        sparse = visual_road_video(50, num_frames=2_000)
        dense = visual_road_video(250, num_frames=2_000)
        assert dense.counts.mean() > 2 * sparse.counts.mean()

    def test_same_scene_across_the_sweep(self):
        a = visual_road_video(50, num_frames=200, scene_seed=7)
        b = visual_road_video(250, num_frames=200, scene_seed=7)
        # The camera/scene seed is shared (same trajectory stream for
        # the common object slots); only the population — and hence the
        # count process — differs.
        assert a.seed == b.seed
        np.testing.assert_array_equal(
            a._populations[0].speed_x[:4], b._populations[0].speed_x[:4])
        assert not np.array_equal(a.counts, b.counts)

    def test_videos_are_deterministic(self):
        a = visual_road_video(100, num_frames=150)
        b = visual_road_video(100, num_frames=150)
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.pixels(42), b.pixels(42))

    def test_concatenated_count_process_reseeds_per_clip(self):
        concat = _ConcatenatedCountProcess(
            400, num_clips=4, seed=3, max_objects=8)
        single = _ConcatenatedCountProcess(
            400, num_clips=1, seed=3, max_objects=8)
        assert len(concat.counts) == len(single.counts) == 400
        # Clip re-seeding changes the realization beyond clip 0.
        assert not np.array_equal(concat.counts[100:], single.counts[100:])
        assert concat.counts.max() <= 8

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            visual_road_video(0)
        with pytest.raises(ConfigurationError):
            _ConcatenatedCountProcess(
                100, num_clips=0, seed=1, max_objects=4)

    def test_truth_matches_counts(self):
        video = visual_road_video(100, num_frames=120)
        assert video.signal_key == "count"
        np.testing.assert_array_equal(
            video.truth_array(), video.counts.astype(np.float64))

"""Coverage for the previously untested video substrate corners:

* :class:`repro.video.reader.VideoReader` — LRU caching, priority
  prefetching, and decode-cost accounting (paper Section 3.5);
* :mod:`repro.video.visual_road` — the Figure 8 density suite and its
  concatenated count process.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.oracle import CostModel
from repro.video import TrafficVideo, VideoReader
from repro.video.visual_road import (
    PAPER_DENSITIES,
    _ConcatenatedCountProcess,
    visual_road_suite,
    visual_road_video,
)


@pytest.fixture()
def reader_video():
    return TrafficVideo("reader-fixture", 200, seed=31)


# ----------------------------------------------------------------------
# VideoReader

class TestVideoReader:
    def test_cold_read_charges_decode_and_caches(self, reader_video):
        cost = CostModel()
        reader = VideoReader(reader_video, cost_model=cost)
        pixels = reader.read(7)
        np.testing.assert_array_equal(pixels, reader_video.pixels(7))
        assert reader.cold_reads == 1 and reader.cache_hits == 0
        assert cost.units("decode") == 1

        again = reader.read(7)
        np.testing.assert_array_equal(again, pixels)
        assert reader.cold_reads == 1 and reader.cache_hits == 1
        assert cost.units("decode") == 1  # hit: no new charge
        assert reader.hit_rate == pytest.approx(0.5)

    def test_read_batch_shapes(self, reader_video):
        reader = VideoReader(reader_video)
        batch = reader.read_batch([1, 5, 9])
        assert batch.shape == (3,) + reader_video.resolution
        assert batch.dtype == np.float32
        empty = reader.read_batch([])
        assert empty.shape == (0,) + reader_video.resolution

    def test_lru_eviction(self, reader_video):
        reader = VideoReader(reader_video, cache_size=2)
        reader.read(0)
        reader.read(1)
        reader.read(2)  # evicts 0
        assert reader.cold_reads == 3
        reader.read(1)  # still cached
        assert reader.cache_hits == 1
        reader.read(0)  # was evicted: cold again
        assert reader.cold_reads == 4

    def test_priority_prefetch_warms_the_cache(self, reader_video):
        cost = CostModel()
        reader = VideoReader(reader_video, cost_model=cost)
        reader.set_priority_order([4, 8, 15, 16])
        fetched = reader.prefetch(3)
        assert fetched == 3
        assert cost.units("decode") == 3
        # Reads along the declared order are all hits now.
        reader.read(4)
        reader.read(8)
        reader.read(15)
        assert reader.cache_hits == 3
        assert cost.units("decode") == 3  # charged once, at prefetch

    def test_prefetch_skips_already_cached_frames(self, reader_video):
        reader = VideoReader(reader_video)
        reader.read(4)
        reader.set_priority_order([4, 8])
        # Frame 4 is cached: prefetch(1) walks past it and decodes 8.
        assert reader.prefetch(1) == 1
        assert reader.read(8) is not None
        assert reader.cache_hits == 1

    def test_prefetch_stops_at_the_end_of_the_order(self, reader_video):
        reader = VideoReader(reader_video)
        reader.set_priority_order([1, 2])
        assert reader.prefetch(10) == 2
        assert reader.prefetch(10) == 0  # order exhausted

    def test_len_and_validation(self, reader_video):
        assert len(VideoReader(reader_video)) == len(reader_video)
        with pytest.raises(ConfigurationError):
            VideoReader(reader_video, cache_size=0)

    def test_hit_rate_empty(self, reader_video):
        assert VideoReader(reader_video).hit_rate == 0.0

    def test_custom_decode_cost_key(self, reader_video):
        cost = CostModel({"warm_decode": 0.5})
        reader = VideoReader(
            reader_video, cost_model=cost, decode_cost_key="warm_decode")
        reader.read(3)
        assert cost.seconds("warm_decode") == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Visual Road suite

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

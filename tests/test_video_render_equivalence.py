"""The render contract (DESIGN.md §1), pinned against the frozen scalar
renderer in ``reference_render.py``:

* ``batch_pixels(ids)`` — on a video, a ``StreamingVideo``, its
  sealed snapshot and a ``ConcatVideo`` — is bit-identical to
  stacking the one-frame-at-a-time reference, for any index list
  (unsorted, duplicates, across the renderer's internal block size),
  and for the batches that are edge cases of ``TrafficVideo``'s
  per-population frame order (a live append's contiguous run, a batch
  already in that order, one showing no object, one spanning two
  blocks);
* ``pixels(i)`` is the batch of one (float64), the noiseless scenes
  match too, and ground-truth boxes did not move;
* a ``Frame`` renders lazily, identically, and pickles with its pixels;
* labelling through an oracle whose UDF reads annotations renders
  nothing;
* ``truth_array`` equals the per-frame loop it replaced;
* the noise start states the renderer computes in bulk are
  ``default_rng((seed, i, 0x5EED))``'s, multi-word seeds and indices
  included, and two threads rendering at once keep their own streams.
"""

from __future__ import annotations

import pickle
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import FrameIndexError
from repro.oracle import CostModel, Oracle, counting_udf
from repro.video import (
    ConcatVideo,
    DashcamVideo,
    SentimentVideo,
    StreamingVideo,
    TrafficVideo,
)
from repro.video.synthetic import _RENDER_BLOCK, _noise_states
from repro.video.visual_road import visual_road_video

from conftest import CountingTraffic
from reference_render import (
    _positions,
    reference_batch_pixels,
    reference_pixels,
    reference_scene,
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NUM_FRAMES = 640
#: Batch sizes around the clip size and the renderer's / the network's
#: block sizes.
SIZES = (0, 1, 30, 512, 513)

GENERATORS = {
    "traffic": lambda: TrafficVideo("eq-traffic", NUM_FRAMES, seed=11),
    "dashcam": lambda: DashcamVideo("eq-dashcam", NUM_FRAMES, seed=12),
    "sentiment": lambda: SentimentVideo("eq-vlog", NUM_FRAMES, seed=13),
    "visual_road": lambda: visual_road_video(150, num_frames=NUM_FRAMES),
}


class _Case:
    """One generator with its full reference, rendered once."""

    def __init__(self, video):
        self.video = video
        everything = range(len(video))
        self.pixels32 = reference_batch_pixels(video, everything)
        self.pixels64 = np.stack(
            [reference_pixels(video, i) for i in everything])
        self.scenes = np.stack(
            [reference_scene(video, i) for i in everything])


@pytest.fixture(scope="module", params=sorted(GENERATORS))
def case(request) -> _Case:
    return _Case(GENERATORS[request.param]())


def index_lists(num_frames: int):
    """Unsorted index arrays with duplicates, of the pinned sizes."""
    return st.tuples(
        st.sampled_from(SIZES), st.integers(0, 2 ** 32 - 1)
    ).map(lambda drawn: np.random.default_rng(drawn[1]).integers(
        0, num_frames, size=drawn[0]))


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


# ----------------------------------------------------------------------
# batch == per-frame reference, through every view

@SETTINGS
@given(data=st.data())
def test_batch_pixels_matches_the_scalar_reference(case, data):
    ids = data.draw(index_lists(NUM_FRAMES))
    assert_same_bits(case.video.batch_pixels(ids), case.pixels32[ids])
    # Any iterable of ints, not only arrays.
    assert_same_bits(
        case.video.batch_pixels(iter(ids.tolist())), case.pixels32[ids])
    assert_same_bits(case.video._scenes(ids), case.scenes[ids])


@SETTINGS
@given(data=st.data())
def test_views_batch_pixels_match_the_scalar_reference(case, data):
    video = case.video
    stream = StreamingVideo(video, 400)
    ids = data.draw(index_lists(len(stream)))
    assert_same_bits(stream.batch_pixels(ids), case.pixels32[ids])

    snapshot = StreamingVideo(video, 290).snapshot()
    ids = data.draw(index_lists(len(snapshot)))
    assert_same_bits(snapshot.batch_pixels(ids), case.pixels32[ids])

    # Members that do not line up with anything: a sealed prefix, the
    # whole video, a growing prefix.
    concat = ConcatVideo([snapshot, video, stream], name="eq-concat")
    expected = np.concatenate(
        [case.pixels32[:290], case.pixels32, case.pixels32[:400]])
    ids = data.draw(index_lists(len(concat)))
    assert_same_bits(concat.batch_pixels(ids), expected[ids])


# ----------------------------------------------------------------------
# TrafficVideo's scenes: each population's frames are put in descending
# order of visible count, so a slot's frames are a leading slice. These
# batches are that order's edge cases, fixed rather than drawn.

@pytest.fixture(scope="module")
def traffic() -> _Case:
    return _Case(GENERATORS["traffic"]())


def assert_renders_like_the_reference(case: _Case, ids) -> None:
    ids = np.asarray(ids, dtype=np.int64)
    assert_same_bits(case.video.batch_pixels(ids), case.pixels32[ids])
    assert_same_bits(case.video._scenes(ids), case.scenes[ids])


def test_an_appended_run_renders_like_the_reference(traffic):
    # A live append renders ``arange(lo, lo + n)``: ascending ids,
    # counts in no particular order.
    for lo in (0, 137, NUM_FRAMES - 150):
        assert_renders_like_the_reference(traffic, np.arange(lo, lo + 150))


@pytest.mark.parametrize("population", [0, 1], ids=["cars", "distractors"])
def test_a_batch_already_in_count_order_renders_like_the_reference(
        traffic, population):
    counts = traffic.video._populations[population].counts
    ids = np.argsort(-counts, kind="stable")[:_RENDER_BLOCK]
    # The batch's own order is that population's order: its frame
    # permutation is the identity.
    assert np.array_equal(
        np.argsort(-counts[ids], kind="stable"), np.arange(ids.size))
    assert_renders_like_the_reference(traffic, ids)


def test_a_batch_showing_no_object_renders_like_the_reference(traffic):
    cars, distractors = (
        slots.counts for slots in traffic.video._populations)
    empty = np.flatnonzero((cars == 0) & (distractors == 0))
    assert empty.size  # frames 253 and 254 of this video
    assert_renders_like_the_reference(traffic, np.repeat(empty, 3)[::-1])
    # No car, but distractors: only the first population is empty.
    no_cars = np.flatnonzero(cars == 0)
    assert distractors[no_cars].any()
    assert_renders_like_the_reference(traffic, no_cars)


def test_two_blocks_showing_both_populations_render_like_the_reference(
        traffic):
    ids = np.random.default_rng(3).permutation(NUM_FRAMES)[
        :2 * _RENDER_BLOCK - 50]
    for block in (ids[:_RENDER_BLOCK], ids[_RENDER_BLOCK:]):
        for slots in traffic.video._populations:
            assert slots.counts[block].any()
    assert_renders_like_the_reference(traffic, ids)


def test_single_frames_are_the_batch_of_one(case):
    video = case.video
    for index in (0, 1, 317, NUM_FRAMES - 1):
        assert_same_bits(video.pixels(index), case.pixels64[index])
        assert_same_bits(
            video.batch_pixels([index])[0], case.pixels32[index])


def test_batches_bounds_check_like_single_reads(case):
    video = case.video
    for bad in ([0, NUM_FRAMES], [3, -1, 5]):
        with pytest.raises(FrameIndexError):
            video.batch_pixels(bad)
    stream = StreamingVideo(video, 400)
    with pytest.raises(FrameIndexError):
        stream.batch_pixels([10, 400])  # not arrived yet
    with pytest.raises(FrameIndexError):
        StreamingVideo(video, 500).snapshot().batch_pixels([500])
    with pytest.raises(FrameIndexError):
        ConcatVideo([video, video], name="c").batch_pixels([2 * NUM_FRAMES])


def test_object_boxes_did_not_move():
    video = GENERATORS["traffic"]()
    height, width = video.resolution
    radius = 2.0 * video._sigma
    for index in range(0, NUM_FRAMES, 7):
        expected = []
        for slots in video._populations:
            active = int(slots.counts[index])
            for cx, cy in _positions(slots, index, active, width, height):
                expected.append(
                    (float(cx - radius), float(cy - radius), slots.label))
        assert [(b.x, b.y, b.label) for b in video.objects(index)] == expected


# ----------------------------------------------------------------------
# lazy frames

def test_frame_pixels_are_lazy_identical_and_pickled():
    video = CountingTraffic("lazy", 200, seed=5)
    frame = video.frame(17)
    assert frame.resolution == video.resolution
    assert frame.truth == {"count": float(video.counts[17])}
    assert not video.rendered  # nothing read the pixels yet

    assert_same_bits(frame.pixels, reference_pixels(video, 17))
    assert frame.pixels is frame.pixels  # rendered once, kept
    assert video.rendered == {17: 1}
    assert frame.resolution == video.resolution

    restored = pickle.loads(pickle.dumps(video.frame(23)))
    assert_same_bits(restored.pixels, reference_pixels(video, 23))
    assert restored.index == 23
    assert restored.timestamp == 23 / video.fps
    assert restored.truth == video.frame(23).truth
    assert restored.objects == video.objects(23)

    # Through the views a frame is still the source's frame.
    stream = StreamingVideo(video, 100)
    assert_same_bits(stream.frame(40).pixels, reference_pixels(video, 40))


def test_labelling_with_an_annotation_udf_renders_nothing():
    video = CountingTraffic("label", 300, seed=6)
    cost = CostModel()
    oracle = Oracle(counting_udf("car"), cost, cost_key="oracle_label")
    ids = np.random.default_rng(0).choice(300, size=100, replace=False)
    scores = oracle.score(video, ids)
    assert np.array_equal(scores, video.counts[ids].astype(np.float64))
    assert cost.units("oracle_label") == 100
    assert sum(video.rendered.values()) == 0


# ----------------------------------------------------------------------
# truth_array == the per-frame loop it replaced

def test_truth_array_equals_the_per_frame_loop(case):
    video = case.video
    key = video.signal_key

    def loop(view):
        return np.asarray(
            [view.frame(i).truth[key] for i in range(len(view))],
            dtype=np.float64)

    for view in (video, StreamingVideo(video, 250),
                 StreamingVideo(video, 500).snapshot()):
        assert_same_bits(view.truth_array(), loop(view))
        assert_same_bits(view.truth_array(key), loop(view))
    with pytest.raises(KeyError):
        video.truth_array("no-such-signal")
    # A copy: callers may scribble on it.
    video.truth_array()[:] = -1.0
    assert_same_bits(video.truth_array(), loop(video))



# ----------------------------------------------------------------------
# the noise stream: start states computed in bulk, one Generator a call

#: The last seed is 33 words: entropy past the precomputed schedule.
NOISE_SEEDS = (0, 1, 331, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 1_050 + 3)
NOISE_INDICES = (0, 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32 + 7)


class _FlatVideo(SentimentVideo):
    """A mid-grey scene at any index, so the renderer can be driven at
    indices past 2**32, where only the noise differs."""

    def _scenes(self, indices):
        return np.full((indices.size,) + self.resolution, 0.5)


@pytest.mark.parametrize("seed", NOISE_SEEDS)
def test_bulk_noise_states_are_seed_sequence_states(seed):
    # Both widths of index in one call, unsorted and repeated.
    indices = np.array(NOISE_INDICES + NOISE_INDICES[::-1], dtype=np.int64)
    assert _noise_states(seed, indices) == [
        np.random.default_rng((seed, i, 0x5EED)).bit_generator.state
        for i in indices.tolist()]
    # ... and they are what the renderer draws from.
    video = _FlatVideo("flat", 8, seed=seed)
    expected = np.stack([
        np.clip(0.5 + np.random.default_rng((seed, i, 0x5EED)).normal(
            0.0, video.noise_level, video.resolution), 0.0, 1.0)
        for i in indices.tolist()])
    assert_same_bits(video._render(indices), expected)
    assert_same_bits(
        TrafficVideo("wide-seed", 40, seed=seed).batch_pixels(range(40)),
        reference_batch_pixels(
            TrafficVideo("wide-seed", 40, seed=seed), range(40)))


def test_concurrent_renders_keep_their_own_streams():
    videos = [TrafficVideo("thread-a", 600, seed=21),
              SentimentVideo("thread-b", 600, seed=22)]
    ids = np.random.default_rng(4).integers(0, 600, size=300)
    expected = [reference_batch_pixels(video, ids) for video in videos]
    start = threading.Barrier(len(videos))

    def render(video):
        start.wait()
        return [video.batch_pixels(ids) for _ in range(20)]

    with ThreadPoolExecutor(len(videos)) as pool:
        rendered = list(pool.map(render, videos))
    for rounds, reference in zip(rendered, expected):
        for pixels in rounds:
            assert_same_bits(pixels, reference)

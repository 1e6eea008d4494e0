"""``video.frames(idx)`` is ``[video.frame(i) for i in idx]`` (DESIGN.md §1).

The batched form exists so an oracle scoring many frames computes the
per-frame ground truth (slot centres, boxes) once for the batch. Three
rules are pinned: the frames are equal field by field for any index
list; a view (a live stream, its sealed snapshot, a concatenation) hands a batch on to its source in one ``frames`` call;
and a subclass that overrides ``frame()`` — a source or a view — has it
called once per index.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.errors import FrameIndexError
from repro.oracle import CostModel, Oracle, counting_udf
from repro.oracle.base import ScoringFunction, exact_scores
from repro.oracle.cache import CachingOracle, ScoreCache
from repro.video import (
    ConcatVideo,
    DashcamVideo,
    SentimentVideo,
    StreamingVideo,
    TrafficVideo,
)

VIDEOS = {
    "traffic": lambda: TrafficVideo("t", 400, seed=3),
    "traffic-no-distractors": lambda: TrafficVideo(
        "t0", 400, seed=4, distractor_mean=0.0),
    "dashcam": lambda: DashcamVideo("d", 300, seed=5),
    "sentiment": lambda: SentimentVideo("s", 300, seed=6),
    "streaming": lambda: StreamingVideo(TrafficVideo("st", 400, seed=7), 250),
    "streaming-appended": lambda: _appended(
        StreamingVideo(TrafficVideo("sa", 600, seed=13), 230,
                       window_seconds=4.0)),
    "snapshot": lambda: _appended(
        StreamingVideo(TrafficVideo("ss", 600, seed=14), 230)).snapshot(),
    "concat": lambda: ConcatVideo(
        [TrafficVideo("c0", 120, seed=9), TrafficVideo("c1", 130, seed=10)],
        name="cc"),
    "concat-with-stream": lambda: ConcatVideo(
        [StreamingVideo(TrafficVideo("cs0", 300, seed=16), 120),
         TrafficVideo("cs1", 130, seed=17)], name="ccs"),
}


def _appended(stream: StreamingVideo) -> StreamingVideo:
    stream.append(20)
    return stream

INDEX_LISTS = {
    "empty": [],
    "one": [17],
    "ascending": list(range(0, 240, 7)),
    "shuffled-with-duplicates": [199, 0, 3, 199, 42, 3, 3, 128, 1],
    "numpy": np.array([5, 4, 200, 4], dtype=np.int64),
}


def _same_frame(batched, single) -> None:
    assert batched.index == single.index
    assert type(batched.index) is type(single.index)
    assert batched.timestamp == single.timestamp
    assert batched.truth == single.truth
    assert [type(v) for v in batched.truth.values()] == \
        [type(v) for v in single.truth.values()]
    assert batched.objects == single.objects
    assert batched.resolution == single.resolution
    assert batched._pixels is None, "frames() must stay render-free"
    assert batched.pixels.tobytes() == single.pixels.tobytes()


@pytest.mark.parametrize("indices", list(INDEX_LISTS))
@pytest.mark.parametrize("kind", list(VIDEOS))
def test_frames_equal_a_loop_over_frame(kind, indices):
    video, indices = VIDEOS[kind](), INDEX_LISTS[indices]
    batched = video.frames(indices)
    assert isinstance(batched, list) and len(batched) == len(indices)
    for frame, index in zip(batched, indices):
        _same_frame(frame, video.frame(index))


@pytest.mark.parametrize("kind", list(VIDEOS))
def test_frames_accept_an_iterator_and_reject_out_of_range(kind):
    video = VIDEOS[kind]()
    assert [f.index for f in video.frames(iter([2, 1]))] == \
        [video.frame(2).index, video.frame(1).index]
    for bad in ([0, len(video)], [3, -1, 2], [len(video) + 7, 1]):
        with pytest.raises(FrameIndexError):
            video.frames(bad)


def test_a_stream_reads_frames_past_its_watermark_only_once_arrived():
    stream = StreamingVideo(TrafficVideo("late", 400, seed=18), 250)
    with pytest.raises(FrameIndexError):
        stream.frames([3, 260])
    snapshot = stream.snapshot()
    stream.append(20)
    for bad in ([3, 260], [250]):
        with pytest.raises(FrameIndexError):
            snapshot.frames(bad)
    for frame, single in zip(stream.frames([260, 3]),
                             [stream.frame(260), stream.frame(3)]):
        _same_frame(frame, single)
    with pytest.raises(FrameIndexError):
        stream.frames([269, 270])


class _CountingBatches(TrafficVideo):
    """Records every ``frames`` call it serves."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches = []

    def frames(self, indices):
        indices = np.asarray(list(indices), dtype=np.int64)
        self.batches.append(indices.tolist())
        return super().frames(indices)


def test_views_read_a_batch_with_one_frames_call_per_source():
    source = _CountingBatches("batches", 400, seed=19)
    stream = StreamingVideo(source, 250)
    stream.frames([5, 200, 5])
    stream.snapshot().frames(iter([7]))
    assert source.batches == [[5, 200, 5], [7]]

    first = _CountingBatches("first", 120, seed=20)
    second = _CountingBatches("second", 130, seed=21)
    concat = ConcatVideo([first, StreamingVideo(second, 100)], name="two")
    frames = concat.frames([130, 2, 125, 2])
    assert first.batches == [[2, 2]] and second.batches == [[10, 5]]
    assert [f.index for f in frames] == [10, 2, 5, 2]


class _CountingFrames(TrafficVideo):
    """A fault-seam-style subclass: its own ``frame()``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.frame_calls = Counter()

    def frame(self, index):
        self.frame_calls[int(index)] += 1
        return super().frame(index)


def test_an_overridden_frame_is_called_once_per_scored_index():
    video = _CountingFrames("seam", 300, seed=11)
    plain = TrafficVideo("seam", 300, seed=11)
    indices = [7, 250, 7, 31]
    udf = counting_udf("car")
    scores = Oracle(udf, CostModel()).score(video, indices)
    assert video.frame_calls == Counter(indices)
    assert scores.tobytes() == \
        Oracle(udf, CostModel()).score(plain, indices).tobytes()

    # The caching oracle reads each *missing* frame once.
    video.frame_calls.clear()
    cached = CachingOracle(udf, CostModel(), cache=ScoreCache({31: 0.0}))
    cached.score(video, indices)
    assert video.frame_calls == Counter({7: 1, 250: 1})

    # Views delegate per index too, so a seam under a view still fires.
    video.frame_calls.clear()
    Oracle(udf, CostModel()).score(StreamingVideo(video, 200), [5, 6, 5])
    assert video.frame_calls == Counter({5: 2, 6: 1})


def test_exact_scores_fallback_reads_frames_in_one_batch():
    calls = []

    def score_frames(frames):
        calls.append(len(frames))
        return [frame.truth["count"] for frame in frames]

    video = TrafficVideo("exact", 200, seed=12)
    scores = exact_scores(ScoringFunction("plain", score_frames), video)
    assert calls == [200]
    assert scores.tolist() == video.counts.astype(float).tolist()

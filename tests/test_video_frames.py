"""``video.frames(idx)`` is ``[video.frame(i) for i in idx]`` (DESIGN.md §1).

The batched form exists so an oracle scoring many frames computes the
per-frame ground truth (slot centres, boxes) once for the batch. Two
rules are pinned: the frames are equal field by field for any index
list, and only the *base* ``SyntheticVideo.frame`` is ever batched — a
subclass or view with its own ``frame()`` has it called once per index.
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
    VideoSlice,
)

VIDEOS = {
    "traffic": lambda: TrafficVideo("t", 400, seed=3),
    "traffic-no-distractors": lambda: TrafficVideo(
        "t0", 400, seed=4, distractor_mean=0.0),
    "dashcam": lambda: DashcamVideo("d", 300, seed=5),
    "sentiment": lambda: SentimentVideo("s", 300, seed=6),
    "streaming": lambda: StreamingVideo(TrafficVideo("st", 400, seed=7), 250),
    "slice": lambda: VideoSlice(TrafficVideo("sl", 400, seed=8), 100, 350),
    "concat": lambda: ConcatVideo(
        [TrafficVideo("c0", 120, seed=9), TrafficVideo("c1", 130, seed=10)],
        name="cc"),
}

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
    for bad in ([0, len(video)], [3, -1, 2]):
        with pytest.raises(FrameIndexError):
            video.frames(bad)


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

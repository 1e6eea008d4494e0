"""O(delta) certification for sliding-window maintenance.

``test_window_equivalence.py`` certifies *what* a windowed answer is
(batch bytes); this module certifies what it *costs*: per-event fresh
oracle work tracks the delta, never the window length or the prefix.
Pinned here:

* every frame is fresh-confirmed at most once over a stream's whole
  life (``CachingOracle.fresh_scores`` — memoization means no event
  re-pays a confirmation, i.e. full-prefix re-certification is gone);
* fresh confirmations only ever target frames inside the open window;
* pure expiry ticks run **zero** fresh proxy inference — retraction is
  cache eviction, not recompute;
* an append *renders* each arriving frame once and nothing else —
  neither the provisional clip it re-decides nor the tail inference
  block it extends — and a tick renders nothing;
* the subscription's recompiled plan is window-restricted (the
  regression pin for the old full-prefix refresh);
* :class:`~repro.core.phase1.BlockInferenceCache` eviction and
  top-healing, unit-tested against a fake proxy (the 480-frame suite
  video never spans two 512-frame inference blocks, so cross-block
  eviction is exercised directly here and at scale by
  ``benchmarks/bench_window_slide.py``);
* hand-built window-less plans are refused on a windowed session.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro import EverestConfig, QueryExecutor, Session
from repro.config import DiffDetectorConfig, Phase1Config
from repro.core import phase1
from repro.core.phase1 import INFER_BLOCK, BlockInferenceCache
from repro.core.uncertain import (
    TRUNCATE_SIGMAS, QuantizationGrid, quantize_mixtures)
from repro.errors import QueryError
from repro.models.mdn import GaussianMixture
from repro.oracle import counting_udf
from repro.video import TrafficVideo

from conftest import CountingTraffic

NUM_FRAMES = 480
BOOTSTRAP = 240
FPS = 30.0
WINDOW_FRAMES = 200

STREAM_CONFIG = EverestConfig(
    phase1=Phase1Config(
        sample_fraction=0.05,
        min_train_samples=96,
        holdout_samples=48,
        cmdn_grid=((3, 12),),
        epochs=15,
    ),
)


def open_window_stream(window_frames: int = WINDOW_FRAMES, **kwargs):
    return Session.open_stream(
        TrafficVideo("window-delta", NUM_FRAMES, seed=17),
        counting_udf("car"), initial_frames=BOOTSTRAP,
        window_seconds=window_frames / FPS, config=STREAM_CONFIG,
        **kwargs)


def build_query(session):
    return session.query().topk(3).guarantee(0.85)


def test_each_frame_is_confirmed_at_most_once_across_events():
    stream = open_window_stream()
    events = [("append", 60), ("tick", 40), ("append", 120),
              ("tick", 80), ("append", 60)]
    fresh_by_event = []
    # Drive a fresh executor per event (sharing the session's score
    # cache, exactly as subscription refreshes do) so each event's
    # CachingOracle is inspectable.
    for kind, size in [("bootstrap", 0)] + events:
        if kind == "append":
            stream.append(size)
        elif kind == "tick":
            stream.tick(size)
        executor = QueryExecutor(stream)
        executor.execute_detailed(build_query(stream).plan())
        oracle = executor.last_confirm_oracle
        fresh = dict(oracle.fresh_scores) if oracle is not None else {}
        # Fresh work only ever touches frames inside the open window.
        assert set(fresh) <= set(
            range(stream.window_lo, stream.watermark))
        fresh_by_event.append(fresh)
    # Memoization makes the physical oracle spend delta-shaped: no
    # frame is ever fresh-confirmed twice, across *all* events. (The
    # old full-prefix re-certify would re-pay the standing top-k here.)
    total = sum(len(fresh) for fresh in fresh_by_event)
    distinct = set().union(*fresh_by_event)
    assert total == len(distinct)
    assert len(distinct) <= stream.watermark


def test_pure_ticks_run_zero_fresh_inference():
    stream = open_window_stream()
    live = build_query(stream).subscribe()
    stream.append(100)
    for frames in (30, 60, 90):
        result = stream.tick(frames)
        # Retraction is eviction: the proxy never re-infers a frame
        # because the window slid past other frames.
        assert result.fresh_inferred_frames == 0
    assert live.latest.num_tuples <= stream.watermark - stream.window_lo


CLIP = STREAM_CONFIG.diff.clip_size

#: Append sizes crossing clip and block boundaries. When every frame is
#: retained rows are frames, and from the 240-row bootstrap the appends
#: leave the tail block at 390, 391, 420, then exactly full (512),
#: one row short (1 023), full again (1 024, 1 536) and spilling over
#: two blocks (2 236); ticks apply to the sliding run only.
DELTA_SCHEDULE = (
    ("append", 150), ("append", 1), ("tick", 40), ("append", CLIP - 1),
    ("append", 92), ("append", 511), ("tick", 300), ("append", 1),
    ("append", 512), ("tick", 90), ("append", 700))


def _rows_in_changed_blocks(before: np.ndarray, after: np.ndarray) -> int:
    """Rows of the inference blocks whose frame-id content changed:
    what the proxy has to score again, whoever renders the pixels."""
    return sum(
        after[lo:lo + INFER_BLOCK].size
        for lo in range(0, after.size, INFER_BLOCK)
        if not np.array_equal(
            before[lo:lo + INFER_BLOCK], after[lo:lo + INFER_BLOCK]))


def _open_delta_stream(video, window_frames, mse_threshold):
    stream = Session.open_stream(
        video, counting_udf("car"), initial_frames=BOOTSTRAP,
        window_seconds=window_frames / FPS if window_frames else None,
        config=dataclasses.replace(
            STREAM_CONFIG,
            diff=DiffDetectorConfig(mse_threshold=mse_threshold)))
    build_query(stream).subscribe()
    return stream


def delta_cases(test):
    """Run ``test`` sliding and not, with retain decisions flipped by
    provisional clips and with every frame retained."""
    return pytest.mark.parametrize("window_frames", [None, 600])(
        pytest.mark.parametrize("mse_threshold", [
            STREAM_CONFIG.diff.mse_threshold,
            0.0,  # blocks fill exactly
        ])(test))


@delta_cases
def test_an_append_renders_the_arrivals_once(window_frames, mse_threshold):
    video = CountingTraffic("window-delta-renders", 2_300, seed=17)
    stream = _open_delta_stream(video, window_frames, mse_threshold)
    appended = 0
    for kind, size in DELTA_SCHEDULE:
        if kind == "tick" and window_frames is None:
            continue
        retained = stream.phase1().diff_result.retained
        watermark = stream.watermark
        before = Counter(video.rendered)
        result = stream.append(size) if kind == "append" \
            else stream.tick(size)
        rendered = Counter(video.rendered)
        rendered.subtract(before)
        rendered = +rendered
        if kind == "tick":
            assert not rendered
            assert result.fresh_inferred_frames == 0
            continue
        appended += size
        # Every arrival exactly once and nothing else: the re-scanned
        # provisional clip's pixels are kept from the last scan, and the
        # tail block's leading rows come from its kept feature rows.
        assert rendered == Counter(range(watermark, watermark + size))
        # The rows through the network are what they always were.
        assert result.fresh_inferred_frames == _rows_in_changed_blocks(
            retained, stream.phase1().diff_result.retained)
    assert stream.watermark == BOOTSTRAP + appended == 2_236
    if mse_threshold == 0.0:
        assert stream.phase1().diff_result.num_retained == 2_236


def _count_quantized_rows(monkeypatch):
    """Rows through ``quantize_mixtures`` in the block cache, per call."""
    calls = []

    def counting(mixture, grid):
        calls.append(len(mixture.pi))
        return quantize_mixtures(mixture, grid)

    monkeypatch.setattr(phase1, "quantize_mixtures", counting)
    return calls


def _audit_requantization(cache, before, quantized) -> int:
    """Check the cache's kept pmf rows after one event; return how many
    rows the event reused.

    (a) Every kept block's pmf bytes are ``quantize_mixtures`` of its
    mixture on its grid. (b) The rows quantized are exactly those whose
    frame id is new to the block or whose mixture row moved, bit for
    bit, when the grid is the block's last one — and every row of a
    block whose grid changed. ``before`` is ``cache._pmfs`` as it was.
    """
    expected = reused = 0
    for b, (key, grid, pmf, mixture) in cache._pmfs.items():
        assert cache._blocks[b][0] == key
        assert pmf.tobytes() == quantize_mixtures(mixture, grid).tobytes()
        old = before.get(b)
        if old is None or old[1] != grid:
            expected += len(mixture.pi)
            continue
        old_row = {frame: row for row, frame in enumerate(
            np.frombuffer(old[0], dtype=np.int64).tolist())}
        for row, frame in enumerate(
                np.frombuffer(key, dtype=np.int64).tolist()):
            at = old_row.get(frame)
            if at is None or any(
                    getattr(mixture, field)[row].tobytes()
                    != getattr(old[3], field)[at].tobytes()
                    for field in ("pi", "mu", "sigma")):
                expected += 1
            elif old[0] != key:
                reused += 1
    assert sum(quantized) == expected
    quantized.clear()
    return reused


@delta_cases
def test_a_grown_block_requantizes_only_its_changed_rows(
        window_frames, mse_threshold, monkeypatch):
    quantized = _count_quantized_rows(monkeypatch)
    stream = _open_delta_stream(
        TrafficVideo("window-delta-requantize", 2_300, seed=17),
        window_frames, mse_threshold)
    cache = stream._maintainer.blocks
    quantized.clear()
    reused = 0
    for kind, size in DELTA_SCHEDULE:
        if kind == "tick" and window_frames is None:
            continue
        before = dict(cache._pmfs)
        if kind == "append":
            stream.append(size)
        else:
            stream.tick(size)
        reused += _audit_requantization(cache, before, quantized)
    # Some grown block kept rows it had quantized before.
    assert reused > 0


def test_requantization_matches_rows_by_frame_id(monkeypatch):
    """A row whose mixture is unchanged but whose frame id is new to the
    block is quantized again: kept rows are matched by frame id."""
    class _SameMixtures(_FakeProxy):
        def predict_features(self, features) -> GaussianMixture:
            return super().predict_features(np.ones_like(features))

    quantized = _count_quantized_rows(monkeypatch)
    cache, proxy, video = BlockInferenceCache(), _SameMixtures(), _FakeVideo()
    grid = QuantizationGrid(floor=0.0, step=1.0, num_levels=3)

    def pmf_of(retained):
        return cache.window_state(
            proxy, video, np.asarray(retained, dtype=np.int64), 0,
            grid_of=lambda top: grid)[2]

    first = pmf_of(range(10))
    assert quantized == [10]
    quantized.clear()
    assert pmf_of([0, 1, 2, 3, 4, 20, 21, 22, 23, 24]).tobytes() \
        == first.tobytes()
    assert quantized == [5]


def test_subscription_plan_is_window_restricted():
    stream = open_window_stream()
    live = build_query(stream).subscribe()
    stream.append(120)
    ticked = stream.tick(60)
    plan = live.query.plan()
    # The recompiled plan's range rides the window edge — the
    # regression pin that subscriptions stopped re-certifying the
    # full prefix.
    assert plan.frame_ranges == ((stream.window_lo, stream.watermark),)
    assert plan.window_seconds == stream.window_seconds
    assert plan.num_tuples == stream.watermark - stream.window_lo
    assert live.latest.num_tuples <= stream.watermark - stream.window_lo
    # The event's fresh confirmations are its one refresh's.
    assert ticked.reports == [live.latest]
    assert ticked.fresh_confirm_calls == live.detail.fresh_confirm_calls


def test_windowed_executor_refuses_window_less_plans():
    stream = open_window_stream()
    plan = build_query(stream).plan()
    bare = dataclasses.replace(
        plan, frame_ranges=None, window_seconds=None)
    with pytest.raises(QueryError):
        QueryExecutor(stream).execute_detailed(bare)


# ----------------------------------------------------------------------
# BlockInferenceCache unit tests (fake proxy: cross-block eviction)
# ----------------------------------------------------------------------
class _FakeVideo:
    """A frame's "pixels" are its id."""

    def __init__(self):
        self.rendered = []

    def batch_pixels(self, ids):
        self.rendered.append(np.asarray(ids).copy())
        return np.asarray(ids, dtype=np.float32)


class _FakeProxy:
    """Mixtures whose top is the largest frame id in the batch."""

    def __init__(self):
        self.inferred = []

    @staticmethod
    def featurize(pixels) -> np.ndarray:
        return np.asarray(pixels, dtype=np.float64).reshape(-1, 1)

    def predict_features(self, features) -> GaussianMixture:
        self.inferred.append(features[:, 0].astype(np.int64))
        return GaussianMixture(
            pi=np.ones_like(features),
            mu=features,
            sigma=np.ones_like(features),
        )


def _window_state(cache, proxy, video, retained, cut, **kwargs):
    """``(mixtures, top)`` of one ``window_state`` pass on a two-level
    grid, after checking the pmf rows it assembled for the window."""
    tops = []
    grid = QuantizationGrid(floor=0.0, step=1.0, num_levels=2)
    mixtures, _, pmf = cache.window_state(
        proxy, video, retained, cut,
        grid_of=lambda top: tops.append(top) or grid, **kwargs)
    np.testing.assert_array_equal(pmf, quantize_mixtures(mixtures, grid))
    # Pmf rows are kept exactly for the blocks that hold mixtures.
    assert sorted(cache._pmfs) == sorted(cache._blocks)
    return mixtures, tops[0]


def test_block_cache_evicts_expired_blocks_but_keeps_tops():
    cache = BlockInferenceCache()
    proxy, video = _FakeProxy(), _FakeVideo()
    retained = np.arange(2 * INFER_BLOCK + 176, dtype=np.int64)
    counter = SimpleNamespace(fresh_inferred_frames=0)

    mixtures, top = _window_state(
        cache, proxy, video, retained, 0, counter=counter)
    assert sorted(cache._blocks) == [0, 1, 2]
    assert len(proxy.inferred) == 3
    assert mixtures.mu.shape[0] == retained.size
    # The exact grid_for term: max(mu + TRUNCATE_SIGMAS * sigma).
    assert top == float(retained[-1]) + TRUNCATE_SIGMAS
    assert counter.fresh_inferred_frames == retained.size

    # Slide the cut past block 0: its mixtures are retracted, its top
    # survives, and nothing is re-inferred.
    cut = INFER_BLOCK + 88
    mixtures, top = _window_state(
        cache, proxy, video, retained, cut, counter=counter)
    assert sorted(cache._blocks) == [1, 2]
    assert len(proxy.inferred) == 3
    assert mixtures.mu.shape[0] == retained.size - cut
    assert float(mixtures.mu[0, 0]) == float(retained[cut])
    assert top == float(retained[-1]) + TRUNCATE_SIGMAS
    assert counter.fresh_inferred_frames == retained.size


def test_block_cache_heals_changed_expired_blocks_with_one_inference():
    cache = BlockInferenceCache()
    proxy, video = _FakeProxy(), _FakeVideo()
    retained = np.arange(2 * INFER_BLOCK, dtype=np.int64)
    cut = INFER_BLOCK
    _window_state(cache, proxy, video, retained, cut)
    assert sorted(cache._blocks) == [1]
    assert len(proxy.inferred) == 2  # the expired block paid for its top

    # An expired block's content changes (a straddling retain decision
    # flipped): exactly one O(block) re-inference heals the top, and
    # the mixture stays evicted.
    changed = retained.copy()
    changed[10] = 10**6
    _, top = _window_state(cache, proxy, video, changed, cut)
    assert len(proxy.inferred) == 3
    assert np.array_equal(proxy.inferred[-1], changed[:INFER_BLOCK])
    assert sorted(cache._blocks) == [1]
    assert top == 10.0**6 + TRUNCATE_SIGMAS

    # Same content again: fully cached, no inference at all.
    _, top = _window_state(cache, proxy, video, changed, cut)
    assert len(proxy.inferred) == 3
    assert top == 10.0**6 + TRUNCATE_SIGMAS


def test_block_cache_drops_stale_trailing_blocks():
    cache = BlockInferenceCache()
    proxy, video = _FakeProxy(), _FakeVideo()
    long = np.arange(3 * INFER_BLOCK, dtype=np.int64)
    _window_state(cache, proxy, video, long, 0)
    assert sorted(cache._blocks) == [0, 1, 2]
    # The retained array shrank (a provisional clip's flipped retain
    # decisions can drop rows): trailing blocks beyond the new extent
    # drop mixtures *and* tops.
    short = long[:INFER_BLOCK]
    _, top = _window_state(cache, proxy, video, short, 0)
    assert sorted(cache._blocks) == [0]
    assert top == float(short[-1]) + TRUNCATE_SIGMAS

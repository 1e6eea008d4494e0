"""Unit tests for the streaming subsystem's components.

The end-to-end bit-identity contract lives in
``test_streaming_equivalence.py``; this file pins the pieces it is
built from — the appendable video view, the incremental difference
detector, the block-aligned inference cache, the caching oracle's
ledger fidelity, the stable Phase-1 cache key, and the artifact
store's crash-recovery behaviour.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import sys
import threading
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro import EverestConfig, QueryService, Session
from repro.api.session import phase1_key
from repro.config import DiffDetectorConfig, Phase1Config
from repro.core.phase1 import (
    BlockInferenceCache,
    IncrementalDiff,
    predict_mixtures_chunked,
    run_phase1,
)
from repro.core.uncertain import (
    build_relation,
    grid_covering,
    grid_for,
    quantize_mixtures,
    restrict_relation,
)
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    OracleBudgetExceededError,
    QueryError,
    VideoError,
)
from repro.oracle import CostModel, Oracle, counting_udf
from repro.oracle.cost import merge_cost_models
from repro.oracle.cache import CachingOracle, ScoreCache
from repro.models.cmdn import ConvMDNProxy
from repro.streaming.store import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    read_checkpoint,
    write_checkpoint,
)
from repro.video import DifferenceDetector, StreamingVideo, TrafficVideo

from conftest import CountingTraffic


# ----------------------------------------------------------------------
# StreamingVideo: the appendable prefix view.

class TestStreamingVideo:
    def test_watermark_append_and_segments(self, traffic_video):
        stream = StreamingVideo(traffic_video, 400)
        assert len(stream) == stream.watermark == 400
        assert stream.remaining == len(traffic_video) - 400
        segment = stream.append(250)
        assert (segment.start, segment.end) == (400, 650)
        assert len(stream) == 650
        starts = [s.start for s in stream.segments]
        assert starts == [0, 400]

    def test_reads_are_bit_identical_to_the_source(self, traffic_video):
        stream = StreamingVideo(traffic_video, 500)
        np.testing.assert_array_equal(
            stream.pixels(123), traffic_video.pixels(123))
        np.testing.assert_array_equal(
            stream.batch_pixels([5, 17, 499]),
            traffic_video.batch_pixels([5, 17, 499]))
        frame = stream.frame(42)
        assert frame.truth == traffic_video.frame(42).truth
        np.testing.assert_array_equal(
            stream.truth_array(), traffic_video.truth_array()[:500])

    def test_no_peeking_beyond_the_watermark(self, traffic_video):
        stream = StreamingVideo(traffic_video, 300)
        with pytest.raises(IndexError):
            stream.pixels(300)
        with pytest.raises(IndexError):
            stream.frame(1_000)
        stream.append(10)
        stream.pixels(305)  # arrived now

    def test_append_validation(self, traffic_video):
        stream = StreamingVideo(traffic_video, len(traffic_video) - 5)
        with pytest.raises(ConfigurationError):
            stream.append(0)
        # Refused before anything moves: a count is an integer, not a
        # float and not a bool.
        segments = stream.segments
        for count in (2.5, True):
            with pytest.raises(ConfigurationError):
                stream.append(count)
        assert stream.watermark == len(traffic_video) - 5
        assert stream.segments == segments
        segment = stream.append(np.int64(2))
        assert type(segment.end) is int and stream.remaining == 3
        with pytest.raises(VideoError):
            stream.append(6)  # source exhausted
        stream.append(len(traffic_video) - stream.watermark)
        assert stream.remaining == 0

    def test_snapshot_is_sealed(self, traffic_video):
        stream = StreamingVideo(traffic_video, 200)
        frozen = stream.snapshot()
        with pytest.raises(VideoError):
            frozen.append(1)
        stream.append(50)  # the live view is unaffected
        assert len(frozen) == 200 and len(stream) == 250

    def test_constructor_validation(self, traffic_video):
        with pytest.raises(ConfigurationError):
            StreamingVideo(traffic_video, 0)
        with pytest.raises(ConfigurationError):
            StreamingVideo(traffic_video, len(traffic_video) + 1)
        stream = StreamingVideo(traffic_video, 10)
        with pytest.raises(ConfigurationError):
            StreamingVideo(stream, 5)  # no nesting


# ----------------------------------------------------------------------
# IncrementalDiff == batch DifferenceDetector over every prefix.

@pytest.mark.parametrize("clip_size", [7, 30])
def test_incremental_diff_matches_batch_for_random_schedules(clip_size):
    video = TrafficVideo("diff-inc", 400, seed=5)
    config = DiffDetectorConfig(clip_size=clip_size)
    detector = DifferenceDetector(config)
    rng = np.random.default_rng(99)
    for _ in range(3):
        incremental = IncrementalDiff(config)
        stream = StreamingVideo(video, int(rng.integers(40, 120)))
        incremental.extend(stream, len(stream))
        while stream.remaining:
            stream.append(int(rng.integers(1, min(90, stream.remaining) + 1)))
            incremental.extend(stream, len(stream))
            batch = detector.run(stream.snapshot())
            mine = incremental.result()
            np.testing.assert_array_equal(mine.retained, batch.retained)
            np.testing.assert_array_equal(
                mine.representative, batch.representative)
            assert mine.num_frames == batch.num_frames


def test_incremental_diff_rejects_backwards_watermark():
    video = TrafficVideo("diff-back", 100, seed=1)
    stream = StreamingVideo(video, 80)
    diff = IncrementalDiff(DiffDetectorConfig())
    diff.extend(stream, 80)
    with pytest.raises(ConfigurationError):
        diff.extend(stream, 40)


# ----------------------------------------------------------------------
# BlockInferenceCache: byte-identical to the batch inference path.

def _count_grid(top):
    return grid_covering(top, floor=0.0, step=1.0)


def _inference_counter():
    """What a maintainer hands the cache to count rows it infers."""
    return SimpleNamespace(fresh_inferred_frames=0)


def _window_state(cache, proxy, video, retained, counter=None):
    """The cache's mixtures, after checking that the pmf rows it keeps
    per block are the mixtures' one-pass quantization, bit for bit."""
    mixtures, grid, pmf = cache.window_state(
        proxy, video, retained, 0, grid_of=_count_grid, counter=counter)
    assert grid == grid_for(mixtures, floor=0.0, step=1.0)
    np.testing.assert_array_equal(pmf, quantize_mixtures(mixtures, grid))
    return mixtures


def test_block_cache_matches_chunked_inference(traffic_video, trained_proxy):
    cache = BlockInferenceCache()
    stream = StreamingVideo(traffic_video, 600)
    retained = np.arange(0, 600)
    mine = _window_state(cache, trained_proxy, stream, retained)
    reference = predict_mixtures_chunked(
        trained_proxy, traffic_video, retained)
    np.testing.assert_array_equal(mine.pi, reference.pi)
    np.testing.assert_array_equal(mine.mu, reference.mu)
    np.testing.assert_array_equal(mine.sigma, reference.sigma)

    # Growing the retained set recomputes only the changed tail blocks
    # (the full leading block stays cached), and stays byte-identical
    # to a from-scratch chunked run.
    counter = _inference_counter()
    stream.append(600)
    grown = np.arange(0, 1200)
    mine2 = _window_state(cache, trained_proxy, stream, grown, counter)
    assert counter.fresh_inferred_frames == grown.size - 512
    reference2 = predict_mixtures_chunked(
        trained_proxy, traffic_video, grown)
    np.testing.assert_array_equal(mine2.mu, reference2.mu)


def test_block_cache_invalidates_on_membership_change(
        traffic_video, trained_proxy):
    cache = BlockInferenceCache()
    stream = StreamingVideo(traffic_video, 900)
    first = np.arange(0, 900, 3)
    _window_state(cache, trained_proxy, stream, first)
    # Drop one frame near the front: every block shifts and recomputes.
    counter = _inference_counter()
    changed = first[first != 3]
    mine = _window_state(cache, trained_proxy, stream, changed, counter)
    assert counter.fresh_inferred_frames == changed.size
    reference = predict_mixtures_chunked(
        trained_proxy, traffic_video, changed)
    np.testing.assert_array_equal(mine.mu, reference.mu)


@pytest.mark.parametrize("family", ["feature", "conv"])
def test_grown_block_scores_like_a_fresh_one(family, trained_proxy):
    """A tail block that grows is featurized for its new rows only, from
    pixels in hand where a scan has them, and still scored as one batch:
    the mixtures are those of the whole block rendered in one go."""
    video = CountingTraffic("grown-block", 600, seed=31)
    if family == "feature":
        proxy = trained_proxy
    else:
        proxy = ConvMDNProxy(
            video.resolution, num_gaussians=2, num_hypotheses=6,
            num_conv_layers=1, seed=2)
        proxy.network.fit_target_scaling(video.counts[:64])
    reference = TrafficVideo("grown-block", 600, seed=31)
    cache = BlockInferenceCache()
    counter = _inference_counter()
    ids = np.arange(0, 600, 1, dtype=np.int64)

    def check(b, rows, scanned=None):
        before = sum(video.rendered.values())
        mixture = cache.block(b, rows, proxy, video, counter, scanned=scanned)
        fresh = proxy.predict_mixtures(reference.batch_pixels(rows))
        for name in ("pi", "mu", "sigma"):
            assert getattr(mixture, name).tobytes() \
                == getattr(fresh, name).tobytes(), name
        return sum(video.rendered.values()) - before

    # Nothing in hand: the block is rendered.
    assert check(0, ids[:100]) == 100
    # Grown by 60 rows a scan already rendered: nothing is rendered.
    arrivals = (ids[100:160], reference.batch_pixels(ids[100:160]))
    assert check(0, ids[:160], arrivals) == 0
    # A retain decision flipped (row 150 gone), 40 arrivals, 5 of them
    # not covered by the scan: only those 5 are rendered.
    rows = np.concatenate([ids[:150], ids[151:200]])
    assert check(0, rows, (ids[160:195],
                           reference.batch_pixels(ids[160:195]))) == 5
    # The block fills (512 rows) and the next one starts: the kept rows
    # carry over by frame id, whichever block asks.
    grown = np.concatenate([rows, ids[200:]])
    assert check(0, grown[:512]) == 512 - rows.size
    assert check(1, grown[512:]) == grown.size - 512
    assert check(1, grown[512:]) == 0  # a hit
    assert counter.fresh_inferred_frames \
        == 100 + 160 + rows.size + 512 + (grown.size - 512)
    # Kept feature rows never reach a block's worth.
    assert cache._tail[0].size == cache._tail[1].shape[0] < 512


# ----------------------------------------------------------------------
# Maintained Phase-1 state == the same state built from scratch.

MAINTAIN_CONFIG = EverestConfig(phase1=Phase1Config(
    sample_fraction=0.05, min_train_samples=96, holdout_samples=48,
    cmdn_grid=((3, 12),), epochs=15))


def _window_cut(stream, retained) -> int:
    lo = stream.video.window_lo if stream.window_frames else 0
    return int(np.searchsorted(retained, lo, side="left"))


def assert_built_from_scratch(stream):
    """The maintained detector state, mixtures and relation are, bit
    for bit, what the two-pass reference builds over the prefix with
    the session's current proxy: detached detector, chunked inference,
    one-pass quantization, window restriction — and also ``run_phase1``
    over the prefix from nothing, labels, training and all."""
    result = stream.phase1()
    prefix = stream.video.snapshot()
    detached = DifferenceDetector(stream.config.diff).run(prefix)
    retained = result.diff_result.retained
    np.testing.assert_array_equal(retained, detached.retained)
    np.testing.assert_array_equal(
        result.diff_result.representative, detached.representative)

    cut = _window_cut(stream, retained)
    reference = predict_mixtures_chunked(result.proxy, prefix, retained)
    for name in ("pi", "mu", "sigma"):
        assert getattr(result.mixtures, name).tobytes() \
            == getattr(reference, name)[cut:].tobytes(), name

    scoring = stream.scoring
    lo = stream.video.window_lo if stream.window_frames else 0

    def same_relation(full):
        window = restrict_relation(full, [(lo, stream.watermark)])
        assert result.relation.grid == window.grid
        for field in ("ids", "pmf", "cdf", "certain", "exact_scores"):
            assert getattr(result.relation, field).tobytes() \
                == getattr(window, field).tobytes(), field

    same_relation(build_relation(
        retained, reference, floor=scoring.score_floor, step=scoring.step,
        known_scores=result.known_scores))
    same_relation(run_phase1(
        prefix, scoring, None, stream.config).relation)


def test_flipped_retain_decisions_keep_the_state_from_scratch():
    # Appends far shorter than a clip: every one re-decides the
    # provisional clip, and the tail block crosses the 512-row
    # boundary while rows inside it come and go.
    stream = Session.open_stream(
        TrafficVideo("maintain-flips", 720, seed=17), counting_udf("car"),
        initial_frames=517, config=MAINTAIN_CONFIG)
    rng = np.random.default_rng(4)
    flips, sizes = 0, []
    assert stream.phase1().diff_result.num_retained < 512
    while stream.video.remaining:
        size = int(min(rng.integers(1, 20), stream.video.remaining))
        watermark = stream.watermark
        kept = stream.phase1().diff_result.retained
        stream.append(size)
        after = stream.phase1().diff_result.retained
        flips += len(set(kept) ^ set(after[after < watermark]))
        sizes.append(size)
        if len(sizes) % 3 == 0 or not stream.video.remaining:
            assert_built_from_scratch(stream)
    assert flips > 20
    assert stream.phase1().diff_result.num_retained > 512 + 64


def test_window_edge_and_healed_blocks_keep_the_state_from_scratch():
    # 300-frame window over a stream whose retained rows span four
    # inference blocks: ticks slide the edge across a block boundary
    # (eviction only), then one append longer than the window changes
    # a block that is already expired — its top is healed by the scan,
    # its mixtures never stay.
    stream = Session.open_stream(
        TrafficVideo("maintain-window", 2_000, seed=17), counting_udf("car"),
        initial_frames=600, window_seconds=10.0, config=MAINTAIN_CONFIG)
    stream.query().topk(3).guarantee(0.85).subscribe()
    cache = stream._maintainer.blocks
    slid = healed = 0
    for kind, size in (("append", 150), ("tick", 100), ("tick", 150),
                       ("append", 1_200), ("tick", 50), ("append", 30),
                       ("tick", 120), ("append", 17)):
        before = stream.phase1().diff_result.retained
        first_block = _window_cut(stream, before) // 512
        result = stream.append(size) if kind == "append" \
            else stream.tick(size)
        after = stream.phase1().diff_result.retained
        now_first = _window_cut(stream, after) // 512
        if kind == "tick":
            assert result.fresh_inferred_frames == 0
            slid += now_first > first_block
        for b in range(now_first):
            rows = slice(b * 512, (b + 1) * 512)
            if not np.array_equal(before[rows], after[rows]):
                healed += 1
                assert cache._tops[b][0] == after[rows].tobytes()
        assert sorted(cache._blocks) == list(range(now_first, -(-after.size // 512)))
        assert sorted(cache._pmfs) == sorted(cache._blocks)
        assert_built_from_scratch(stream)
    assert slid >= 1 and healed >= 1


# ----------------------------------------------------------------------
# The cache's derived rows: out of checkpoints, safe to share.

def _event_bytes(stream, result):
    entry = stream.phase1()
    return (
        [report.to_json() for report in result.reports],
        result.fresh_inferred_frames,
        entry.relation.pmf.tobytes(),
        entry.relation.ids.tobytes(),
        entry.mixtures.mu.tobytes(),
        entry.cost_model.breakdown(),
    )


def test_resume_mid_block_continues_byte_for_byte(tmp_path):
    def open_window_stream():
        video = CountingTraffic("resume-mid-block", 1_400, seed=29)
        stream = Session.open_stream(
            video, counting_udf("car"), initial_frames=700,
            window_seconds=15.0, config=MAINTAIN_CONFIG)
        stream.query().topk(3).guarantee(0.85).subscribe()
        stream.append(140)
        stream.tick(60)
        stream.append(75)
        return video, stream

    straight_video, straight = open_window_stream()
    _, interrupted = open_window_stream()
    maintainer = interrupted._maintainer
    cache = maintainer.blocks
    retained = interrupted.phase1().diff_result.retained
    tail_rows = retained.size % 512
    assert 0 < tail_rows == cache._tail[0].size  # mid-block
    assert cache._pmfs and sorted(cache._pmfs) == sorted(cache._blocks)
    watermark = interrupted.watermark
    clip_from = watermark - watermark % MAINTAIN_CONFIG.diff.clip_size
    assert maintainer.diff.clip[0].tolist() \
        == list(range(clip_from, watermark))  # mid-clip
    interrupted.checkpoint(tmp_path / "ck")

    # Derived rows stay out of the pickle: the held clip pixels move no
    # byte of it, so holding them took no format bump.
    blob = pickle.dumps(maintainer)
    pickled = pickle.loads(blob)
    assert pickled.diff.clip is None
    held, maintainer.diff.clip = maintainer.diff.clip, None
    assert pickle.dumps(maintainer) == blob
    maintainer.diff.clip = held
    assert set(maintainer.diff.__getstate__()) \
        == {"config", "representative", "retained_mask", "processed"}
    assert set(cache.__getstate__()) == {"_blocks", "_tops"}
    assert pickled.blocks._pmfs == {} and pickled.blocks._tail is None
    assert sorted(pickled.blocks._blocks) == sorted(cache._blocks)
    assert FORMAT_VERSION == 7

    resumed = Session.resume(tmp_path / "ck")
    resumed.query().topk(3).guarantee(0.85).subscribe()
    video = resumed.video.source
    assert resumed._maintainer.blocks._tail is None
    assert resumed._maintainer.diff.clip is None
    # The first append after a resume renders, once each, its arrivals,
    # the provisional clip and the tail block's rows below it (the held
    # pixels and feature rows were dropped); afterwards an append
    # renders its arrivals only, like its twin's every append.
    settled_tail = retained[retained.size - tail_rows:]
    first = Counter(range(clip_from, watermark + 33)) \
        + Counter(settled_tail[settled_tail < clip_from].tolist())
    for kind, size in (("append", 33), ("tick", 45), ("append", 150),
                       ("append", 260), ("tick", 10)):
        watermark = straight.watermark
        before = [Counter(v.rendered) for v in (straight_video, video)]
        results = [
            session.append(size) if kind == "append" else session.tick(size)
            for session in (straight, resumed)]
        assert _event_bytes(resumed, results[1]) \
            == _event_bytes(straight, results[0])
        arrivals = Counter(range(watermark, watermark + size)) \
            if kind == "append" else Counter()
        rendered = [Counter(v.rendered) - b for v, b in zip(
            (straight_video, video), before)]
        assert rendered[0] == arrivals
        assert rendered[1] == (first if size == 33 else arrivals)
    assert_built_from_scratch(resumed)


def test_sibling_service_streams_own_their_blocks_across_threads():
    """Two streams over one artifact, opened through one service and
    driven by interleaved appends from two threads: each keeps its own
    inference cache (a service shares only immutable or append-only
    state), and whatever the interleaving every event stays byte-equal
    to the batch re-run over its own prefix."""
    schedules = ((25, 40, 7, 90, 31, 60), (60, 3, 110, 15, 70, 12, 45))
    served = [[] for _ in schedules]
    errors = []
    with QueryService(workers=2, use_processes=False) as service:
        siblings = []
        for _ in schedules:
            stream = service.open_stream(
                TrafficVideo("siblings", 900, seed=37), counting_udf("car"),
                initial_frames=480, config=MAINTAIN_CONFIG)
            live = stream.query().topk(3).guarantee(0.85).subscribe()
            siblings.append((stream, live))
        (a, _), (b, _) = siblings
        assert a._maintainer.blocks is not b._maintainer.blocks

        def drive(index):
            stream, live = siblings[index]
            try:
                for size in schedules[index]:
                    result = stream.append(size)
                    relation = stream.phase1().relation
                    served[index].append((
                        stream.watermark, result.reports[0].to_json(),
                        live.latest.to_json(), relation.pmf.tobytes(),
                        relation.ids.tobytes()))
            except Exception as error:  # surfaced below, with the traceback
                errors.append(error)

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(len(schedules))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    assert [len(events) for events in served] == [6, 7]

    source = TrafficVideo("siblings", 900, seed=37)
    for events in served:
        for watermark, event, report, pmf, ids in events:
            assert event == report
            batch = Session(
                StreamingVideo(source, watermark, sealed=True),
                counting_udf("car"), config=a.config)
            assert batch.query().topk(3).guarantee(0.85).run() \
                .to_json() == report
            relation = batch.phase1().relation
            assert relation.pmf.tobytes() == pmf
            assert relation.ids.tobytes() == ids


# ----------------------------------------------------------------------
# CachingOracle: the ledger cannot tell it apart from a real oracle.

class TestCachingOracle:
    def test_charges_and_counts_like_the_base_oracle(self, traffic_video):
        scoring = counting_udf("car")
        plain_cost, cached_cost = CostModel(), CostModel()
        plain = Oracle(scoring, plain_cost, cost_key="oracle_confirm")
        cached = CachingOracle(
            scoring, cached_cost, cache=ScoreCache(),
            cost_key="oracle_confirm")
        indices = [3, 9, 3, 50]
        np.testing.assert_array_equal(
            cached.score(traffic_video, indices),
            plain.score(traffic_video, indices))
        assert cached.calls == plain.calls == 4
        assert cached_cost.breakdown() == plain_cost.breakdown()
        assert cached.fresh_calls == 3  # 3 repeated within the batch

    def test_cache_hits_skip_the_udf_but_not_the_ledger(
            self, traffic_video):
        scoring = counting_udf("car")
        cache = ScoreCache()
        cost = CostModel()
        oracle = CachingOracle(
            scoring, cost, cache=cache, cost_key="oracle_confirm")
        oracle.score(traffic_video, [1, 2, 3])
        seconds_once = cost.seconds("oracle_confirm")
        oracle.score(traffic_video, [1, 2, 3])
        assert oracle.fresh_calls == 3  # no new physical work
        assert oracle.calls == 6  # but full accounting
        assert cost.seconds("oracle_confirm") == pytest.approx(
            2 * seconds_once)

    def test_budget_is_enforced_on_accounted_calls(self, traffic_video):
        cache = ScoreCache()
        oracle = CachingOracle(
            counting_udf("car"), CostModel(), cache=cache, budget=4)
        oracle.score(traffic_video, [1, 2, 3])
        with pytest.raises(OracleBudgetExceededError):
            # Cached or not, accounted calls exhaust the budget exactly
            # like a batch run's oracle would.
            oracle.score(traffic_video, [1, 2])

    def test_score_cache_roundtrip(self):
        cache = ScoreCache({4: 2.0})
        assert 4 in cache and 5 not in cache
        cache.merge([(5, 1.5)])
        assert cache.get(5) == 1.5
        assert dict(cache.since(0)[0]) == {4: 2.0, 5: 1.5}
        assert len(cache) == 2


# ----------------------------------------------------------------------
# Stable Phase-1 cache key (satellite).

class TestPhase1Key:
    def test_key_is_explicit_fields_not_repr(self):
        key = dict(phase1_key(EverestConfig()))
        assert key["seed"] == 0
        assert key["clip_size"] == 30
        assert key["cmdn_grid"] == ((3, 8), (5, 12), (8, 16))
        assert "sample_prefix" in key

    def test_phase2_overrides_share_a_key(self):
        base = EverestConfig()
        phase2_only = dataclasses.replace(
            base, phase2=dataclasses.replace(
                base.phase2, batch_size=32, oracle_budget=10))
        assert phase1_key(base) == phase1_key(phase2_only)

    def test_phase1_changes_split_the_key(self):
        base = EverestConfig()
        assert phase1_key(base) != phase1_key(
            dataclasses.replace(base, seed=1))
        assert phase1_key(base) != phase1_key(dataclasses.replace(
            base, phase1=dataclasses.replace(
                base.phase1, sample_prefix=100)))
        assert phase1_key(base) != phase1_key(dataclasses.replace(
            base, diff=DiffDetectorConfig(clip_size=10)))

    def test_key_is_hashable_and_normalized(self):
        listy = dataclasses.replace(
            EverestConfig(),
            phase1=Phase1Config(cmdn_grid=[(3, 8), (5, 12), (8, 16)]))
        assert hash(phase1_key(listy)) == hash(phase1_key(EverestConfig()))


# ----------------------------------------------------------------------
# Artifact store: atomicity and corruption detection.

class TestArtifactStore:
    def test_roundtrip_and_manifest(self, tmp_path):
        path = tmp_path / "ck"
        write_checkpoint(path, {"answer": 42}, metadata={"video_name": "v"})
        state, manifest = read_checkpoint(path)
        assert state == {"answer": 42}
        assert manifest["video_name"] == "v"
        assert manifest["format_version"] == FORMAT_VERSION

    def test_rewrite_garbage_collects_old_blobs(self, tmp_path):
        path = tmp_path / "ck"
        write_checkpoint(path, {"round": 1})
        write_checkpoint(path, {"round": 2})
        blobs = list(path.glob("state-*.pkl"))
        assert len(blobs) == 1
        state, _ = read_checkpoint(path)
        assert state == {"round": 2}

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_checkpoint(tmp_path / "nope")

    def test_corrupt_blob_fails_its_checksum(self, tmp_path):
        path = tmp_path / "ck"
        write_checkpoint(path, {"round": 1})
        blob = next(path.glob("state-*.pkl"))
        blob.write_bytes(b"garbage")
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)

    @pytest.mark.parametrize("text", ["[1, 2]", "null", '"state"', "3"])
    def test_a_manifest_that_is_not_an_object_is_refused(
            self, tmp_path, text):
        path = tmp_path / "ck"
        write_checkpoint(path, {"round": 1})
        (path / MANIFEST_NAME).write_text(text)
        with pytest.raises(CheckpointError, match="not a JSON object"):
            read_checkpoint(path)

    def test_a_state_file_outside_the_checkpoint_is_refused(self, tmp_path):
        # A blob that would pass its checksum, named by a path that
        # leaves the checkpoint directory: refused before it is read.
        path = tmp_path / "ck"
        write_checkpoint(path, {"round": 1})
        blob = pickle.dumps({"round": "elsewhere"})
        (tmp_path / "elsewhere").write_bytes(blob)
        manifest_path = path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["state_file"] = "../elsewhere"
        manifest["sha256"] = hashlib.sha256(blob).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="state file"):
            read_checkpoint(path)

    def test_unknown_format_version(self, tmp_path):
        path = tmp_path / "ck"
        write_checkpoint(path, {"round": 1})
        manifest_path = path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="format"):
            read_checkpoint(path)

    def test_version_1_checkpoint_is_refused_by_the_manifest(self, tmp_path):
        # Every superseded format, not only version 1: an old state
        # pickles classes that no longer exist (1, 3, 4, 5, and 6's
        # warm-tier entry wraps a result object) or a StreamingVideo
        # without the window fields (2); the refusal must come from the
        # manifest, before pickle sees it.
        for version in range(1, FORMAT_VERSION):
            path = tmp_path / f"ck{version}"
            write_checkpoint(path, {"round": 1})
            blob = b"\x80\x04crepro.windowed.maintenance\n" \
                b"WindowedIncrementalPhase1\n."
            next(path.glob("state-*.pkl")).write_bytes(blob)
            manifest_path = path / MANIFEST_NAME
            manifest = json.loads(manifest_path.read_text())
            manifest["format_version"] = version
            manifest["sha256"] = hashlib.sha256(blob).hexdigest()
            manifest_path.write_text(json.dumps(manifest))
            with pytest.raises(
                    CheckpointError, match=f"format {version} unsupported"):
                Session.resume(path)
        assert FORMAT_VERSION == 7

    def test_a_format_5_checkpoint_is_refused_naming_its_version(
            self, tmp_path):
        # A format-5 state pickles a Phase2Config holding a
        # SelectCandidateConfig, a class that no longer exists: the
        # manifest names the version and refuses it before pickle runs.
        path = tmp_path / "ck5"
        write_checkpoint(path, {"round": 1})
        blob = b"\x80\x04crepro.config\nSelectCandidateConfig\n."
        next(path.glob("state-*.pkl")).write_bytes(blob)
        manifest_path = path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 5
        manifest["sha256"] = hashlib.sha256(blob).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(AttributeError, match="SelectCandidateConfig"):
            pickle.loads(blob)
        with pytest.raises(CheckpointError,
                           match="format 5 unsupported.*writes 7"):
            Session.resume(path)

    def test_checkpoint_keeps_nothing_per_delivered_event(self, tmp_path):
        # An autosaved stream checkpoints its maintainer and the
        # autosave path only: no report, and no event result, rides
        # the pickle, however many events were delivered.
        path = tmp_path / "auto"
        stream = Session.open_stream(
            TrafficVideo("ck-events", 420, seed=23), counting_udf("car"),
            initial_frames=240, window_seconds=8.0, autosave_path=path,
            config=EverestConfig.fast())
        stream.query().topk(3).guarantee(0.85).subscribe()
        for result in (stream.append(60), stream.tick(30),
                       stream.append(60)):
            assert len(result.reports) == 1
        state, manifest = read_checkpoint(path)
        assert set(state) == {"maintainer", "autosave_path"}
        assert state["autosave_path"] == path
        assert manifest["watermark"] == stream.watermark == 360
        blob = (path / manifest["state_file"]).read_bytes()
        for name in (b"QueryReport", b"AppendResult", b"ExpiryResult"):
            assert name not in blob

    def test_equal_stream_histories_checkpoint_to_the_same_digest(
            self, tmp_path):
        # A checkpoint holds no clock reading and nothing derived: two
        # streams fed the same events write the same state bytes.
        def digest(name):
            stream = Session.open_stream(
                TrafficVideo("ck-twin", 900, seed=29), counting_udf("car"),
                initial_frames=400, window_seconds=8.0,
                config=EverestConfig.fast())
            stream.append(150)
            stream.tick(60)
            stream.checkpoint(tmp_path / name)
            return read_checkpoint(tmp_path / name)[1]["sha256"]

        assert digest("first") == digest("second")


# ----------------------------------------------------------------------
# Session-level surfaces not covered by the equivalence suite.

@pytest.fixture(scope="module")
def small_stream_session():
    video = TrafficVideo("stream-api", 360, seed=23)
    return Session.open_stream(
        video, counting_udf("car"), initial_frames=240,
        config=EverestConfig.fast())


class TestStreamingSessionSurface:
    def test_open_stream_by_registry_names(self):
        session = Session.open_stream(
            "traffic", "count[car]", initial_frames=200,
            num_frames=300, seed=2, config=EverestConfig.fast())
        assert session.watermark == 200
        assert session.video.name == "traffic"

    @pytest.mark.parametrize("host", ["Session", "QueryService"])
    def test_a_stray_keyword_is_named_with_its_call(self, host):
        """Beside a video object a stray keyword is a TypeError; beside
        a registry name a ConfigurationError listing what the name's
        builder takes. Either names the keyword and the call."""
        video = TrafficVideo("stray", 300, seed=2)
        with QueryService(workers=1) as service:
            if host == "Session":
                open_stream = Session.open_stream
                builder = {"num_frames": 300, "streaming": 2}
            else:
                open_stream = service.open_stream
                builder = {"video_kwargs": {"num_frames": 300, "streaming": 2}}
            with pytest.raises(TypeError, match="max_histroy") as error:
                open_stream(
                    video, "count[car]", initial_frames=200, max_histroy=2)
            assert "open_stream()" in str(error.value)
            with pytest.raises(ConfigurationError) as error:
                open_stream(
                    "traffic", "count[car]", initial_frames=200, **builder)
        message = str(error.value)
        assert f"{host}.open_stream()" in message and "streaming" in message
        assert "num_frames" in message and "burst_width_fraction" in message

    def test_a_stray_keyword_to_session_open_is_named(self):
        with pytest.raises(TypeError, match="Session.open.*max_histroy"):
            Session.open(TrafficVideo("stray", 300, seed=2), "count[car]",
                         max_histroy=2)
        with pytest.raises(ConfigurationError,
                           match="Session.open.*streaming.*accepts"):
            Session.open("traffic", "count[car]", streaming=2)

    @pytest.mark.parametrize("window_seconds", [None, 4.0])
    def test_live_phase1_ledgers_are_deterministic(self, window_seconds):
        # Phase-1 charges are purely simulated on every path: two
        # identical streams keep identical ledgers across an append,
        # and so do their folds.
        def ledgers():
            stream = Session.open_stream(
                TrafficVideo("stream-ledger", 360, seed=23),
                counting_udf("car"), initial_frames=240,
                window_seconds=window_seconds,
                config=EverestConfig.fast())
            before = stream.phase1().cost_model.breakdown()
            stream.append(60)
            batch = stream.batch_session()
            merged = merge_cost_models(
                [batch.phase1().cost_model, stream.phase1().cost_model])
            return before, stream.phase1().cost_model.breakdown(), \
                merged.breakdown()

        assert ledgers() == ledgers()

    def test_a_refused_append_leaves_the_stream_answering(self):
        stream = Session.open_stream(
            TrafficVideo("stream-refused", 360, seed=23),
            counting_udf("car"), initial_frames=240,
            config=EverestConfig.fast())
        stream.query().topk(5).guarantee(0.9).subscribe()
        with pytest.raises(ConfigurationError):
            stream.append(2.5)
        assert stream.watermark == 240 and len(stream.segments) == 1
        result = stream.append(10)
        assert stream.watermark == 250
        reference = stream.batch_session().query().topk(5).guarantee(0.9)
        assert result.reports[0].to_json() == reference.run().to_json()

    def test_bootstrapped_stream_is_phase1_cached(
            self, small_stream_session):
        stream = small_stream_session
        stream.phase1()
        assert stream.phase1_cached()
        assert stream.phase1_cached(key=phase1_key(stream.config))
        assert stream.phase1_runs == 1
        other = dataclasses.replace(stream.config, seed=99)
        assert not stream.phase1_cached(other)

    def test_open_stream_requires_initial_frames(self, traffic_video):
        with pytest.raises(QueryError, match="initial_frames"):
            Session.open_stream(traffic_video, counting_udf("car"))

    def test_subscribe_requires_streaming_session(self, traffic_video):
        batch = Session(
            traffic_video, counting_udf("car"),
            config=EverestConfig.fast())
        with pytest.raises(QueryError, match="streaming"):
            batch.query().topk(3).subscribe()

    def test_subscribe_rejects_foreign_queries(
            self, small_stream_session, traffic_video):
        other = Session(
            traffic_video, counting_udf("car"),
            config=EverestConfig.fast())
        with pytest.raises(QueryError):
            small_stream_session.subscribe(other.query().topk(2))

    def test_open_stream_rejects_conflicting_initial_frames(
            self, traffic_video):
        stream = StreamingVideo(traffic_video, 300)
        with pytest.raises(QueryError, match="implied"):
            Session.open_stream(
                stream, counting_udf("car"), initial_frames=100,
                config=EverestConfig.fast())

    def test_failed_subscription_refresh_leaves_append_applied(self):
        video = TrafficVideo("budget-stream", 400, seed=12)
        session = Session.open_stream(
            video, counting_udf("car"), initial_frames=250,
            config=EverestConfig.fast())
        doomed = session.query().topk(2).guarantee(0.8).subscribe()
        healthy = session.query().topk(2).guarantee(0.8).subscribe()
        # Choke the first subscription: its next refresh must trip.
        doomed.query = doomed.query.oracle_budget(1)
        with pytest.raises(OracleBudgetExceededError):
            session.append(50)
        # The append is fully applied and the error did not starve the
        # later subscription: watermark advanced, bookkeeping recorded,
        # the healthy subscription got its report.
        assert session.watermark == 300
        assert len(session.segments) == 2
        assert healthy.latest.num_frames == 300
        # The failed subscription keeps its last good answer.
        assert doomed.latest.num_frames == 250
        # A retry appends *further* frames (nothing is re-appended).
        doomed.query = doomed.query.oracle_budget(None)
        session.append(50)
        assert session.watermark == 350
        assert doomed.latest.num_frames == 350

    def test_append_result_shape_and_execute(self, small_stream_session):
        session = small_stream_session
        live = session.query().topk(2).guarantee(0.8).subscribe()
        result = session.append(60)
        assert result.watermark == session.watermark
        assert result.reports[-1] is live.latest
        assert result.segment.num_frames == 60
        assert result.fresh_oracle_calls == \
            result.fresh_label_calls + result.fresh_confirm_calls
        assert live.detail.report is live.latest
        plans = [
            session.query().topk(k).guarantee(0.8).plan()
            for k in (2, 3)
        ]
        reports = [session.execute(plan) for plan in plans]
        assert [r.k for r in reports] == [2, 3]
        assert session.phase1_runs == 1

    def test_stale_plans_are_rejected_after_append(
            self, small_stream_session):
        session = small_stream_session
        stale = session.query().topk(2).guarantee(0.8).plan()
        session.append(30)
        with pytest.raises(QueryError):
            session.execute(stale)

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

import numpy as np
import pytest

from repro import EverestConfig, Session
from repro.api.session import phase1_key
from repro.config import DiffDetectorConfig, Phase1Config
from repro.core.phase1 import predict_mixtures_chunked
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    OracleBudgetExceededError,
    QueryError,
    VideoError,
)
from repro.oracle import CostModel, Oracle, counting_udf
from repro.oracle.cost import merge_cost_models
from repro.streaming import (
    BlockInferenceCache,
    CachingOracle,
    IncrementalDiff,
    ScoreCache,
    StreamingConfig,
)
from repro.streaming.store import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    read_checkpoint,
    write_checkpoint,
)
from repro.video import DifferenceDetector, StreamingVideo, TrafficVideo


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
        with pytest.raises(VideoError):
            stream.append(6)  # source exhausted
        stream.append_until(len(traffic_video))
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

def test_block_cache_matches_chunked_inference(traffic_video, trained_proxy):
    cache = BlockInferenceCache()
    stream = StreamingVideo(traffic_video, 600)
    retained = np.arange(0, 600)
    mine, _ = cache.window_state(
        trained_proxy, stream, retained, 0, truncate_sigmas=3.0)
    reference = predict_mixtures_chunked(
        trained_proxy, traffic_video, retained)
    np.testing.assert_array_equal(mine.pi, reference.pi)
    np.testing.assert_array_equal(mine.mu, reference.mu)
    np.testing.assert_array_equal(mine.sigma, reference.sigma)

    # Growing the retained set recomputes only the changed tail blocks
    # (the full leading block stays cached), and stays byte-identical
    # to a from-scratch chunked run.
    from repro.streaming import StreamingStats
    stats = StreamingStats()
    stream.append(600)
    grown = np.arange(0, 1200)
    mine2, _ = cache.window_state(
        trained_proxy, stream, grown, 0, truncate_sigmas=3.0, stats=stats)
    assert stats.fresh_inferred_frames == grown.size - 512
    reference2 = predict_mixtures_chunked(
        trained_proxy, traffic_video, grown)
    np.testing.assert_array_equal(mine2.mu, reference2.mu)


def test_block_cache_invalidates_on_membership_change(
        traffic_video, trained_proxy):
    cache = BlockInferenceCache()
    stream = StreamingVideo(traffic_video, 900)
    first = np.arange(0, 900, 3)
    cache.window_state(
        trained_proxy, stream, first, 0, truncate_sigmas=3.0)
    # Drop one frame near the front: every block shifts and recomputes.
    from repro.streaming import StreamingStats
    stats = StreamingStats()
    changed = first[first != 3]
    mine, _ = cache.window_state(
        trained_proxy, stream, changed, 0, truncate_sigmas=3.0, stats=stats)
    assert stats.fresh_inferred_frames == changed.size
    reference = predict_mixtures_chunked(
        trained_proxy, traffic_video, changed)
    np.testing.assert_array_equal(mine.mu, reference.mu)


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
        cache.put(5, 1.5)
        assert cache.get(5) == 1.5
        assert cache.as_dict() == {4: 2.0, 5: 1.5}
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
        # Every superseded format, not only version 1 (the name is
        # pinned by the test floor): an old state pickles classes that
        # no longer exist (1) or a StreamingVideo without the window
        # fields (2); the refusal must come from the manifest, before
        # pickle sees it.
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
        assert FORMAT_VERSION == 3


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

    @pytest.mark.parametrize("window_seconds", [None, 4.0])
    def test_live_phase1_ledgers_are_deterministic(self, window_seconds):
        # Phase-1 charges are purely simulated on every path, so a
        # stream's ledger must say so — before and after an append —
        # or folding it re-enables wall-clock timers on the merge.
        stream = Session.open_stream(
            TrafficVideo("stream-ledger", 360, seed=23),
            counting_udf("car"), initial_frames=240,
            window_seconds=window_seconds, config=EverestConfig.fast())
        assert stream.phase1().cost_model.wall_clock is False
        stream.append(60)
        assert stream.phase1().cost_model.wall_clock is False
        batch = stream.batch_session()
        merged = merge_cost_models(
            [batch.phase1().cost_model, stream.phase1().cost_model])
        assert merged.wall_clock is False

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

    def test_streaming_config_validation(self):
        with pytest.raises(ConfigurationError):
            StreamingConfig(audit_fraction=1.5)
        with pytest.raises(ConfigurationError):
            StreamingConfig(retrain_epochs=0)
        with pytest.raises(ConfigurationError):
            StreamingConfig(max_history=0)

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
        doomed = session.query().topk(2).guarantee(0.8) \
            .deterministic_timing().subscribe()
        healthy = session.query().topk(2).guarantee(0.8) \
            .deterministic_timing().subscribe()
        # Choke the first subscription: its next refresh must trip.
        doomed.query = doomed.query.oracle_budget(1)
        with pytest.raises(OracleBudgetExceededError):
            session.append(50)
        # The append is fully applied and the error did not starve the
        # later subscription: watermark advanced, bookkeeping recorded,
        # the healthy subscription got its report.
        assert session.watermark == 300
        assert session.stats.appends == 1
        assert len(session.append_log) == 1
        assert healthy.latest.num_frames == 300
        # A retry appends *further* frames (nothing is re-appended).
        doomed.query = doomed.query.oracle_budget(None)
        session.append(50)
        assert session.watermark == 350
        assert doomed.latest.num_frames == 350

    def test_execute_many_rejects_parallel_workers(self):
        video = TrafficVideo("serial-stream", 300, seed=13)
        session = Session.open_stream(
            video, counting_udf("car"), initial_frames=250,
            config=EverestConfig.fast())
        plan = session.query().topk(2).guarantee(0.8).plan()
        with pytest.raises(QueryError, match="serially"):
            session.execute_many([plan], workers=2)

    def test_max_history_bounds_the_append_log(self):
        video = TrafficVideo("history", 400, seed=8)
        session = Session.open_stream(
            video, counting_udf("car"), initial_frames=250,
            config=EverestConfig.fast(),
            streaming=StreamingConfig(max_history=2))
        live = session.query().topk(2).guarantee(0.8) \
            .deterministic_timing().subscribe()
        for _ in range(4):
            session.append(30)
        assert len(session.append_log) == 2
        assert len(live.reports) == 2
        # The latest answer survives trimming and stays current.
        assert live.latest is live.reports[-1]
        assert live.latest.num_frames == session.watermark

    def test_append_result_shape_and_execute_many(
            self, small_stream_session):
        session = small_stream_session
        live = session.query().topk(2).guarantee(0.8) \
            .deterministic_timing().subscribe()
        result = session.append(60)
        assert result.watermark == session.watermark
        assert result.reports[-1] is live.latest
        assert result.segment.num_frames == 60
        assert result.fresh_oracle_calls == \
            result.fresh_label_calls + result.fresh_confirm_calls
        assert len(live) == 2 and list(live) == live.reports
        plans = [
            session.query().topk(k).guarantee(0.8).deterministic_timing()
            .plan()
            for k in (2, 3)
        ]
        reports = session.execute_many(plans)
        assert [r.k for r in reports] == [2, 3]
        assert session.phase1_runs == 1

    def test_stale_plans_are_rejected_after_append(
            self, small_stream_session):
        session = small_stream_session
        stale = session.query().topk(2).guarantee(0.8).plan()
        session.append(30)
        with pytest.raises(QueryError):
            session.execute(stale)

"""Equivalence certification for sliding-window standing queries.

The acceptance contract (mirroring ``test_streaming_equivalence.py``):
after *any* interleaving of inserts (``append``) and expiries
(``tick``), a windowed subscription's report — answer, confidence,
*and* deterministic-timing ledgers — is byte-identical
(``QueryReport.to_json``) to a from-scratch batch run over the window
snapshot. Schedules are drawn by hypothesis; batch references are
cached per ``(watermark, horizon, window)`` state so repeated states
certify against the same bytes.

Also pinned here: the window == full-history and window < one
inference block corners, the inline/process execution lanes, the
service-hosted lane, and checkpoint/resume of window state
(DESIGN.md §13).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import EverestConfig, QueryService, Session, StreamingVideo
from repro.config import Phase1Config
from repro.errors import ConfigurationError, QueryError, VideoError
from repro.oracle import counting_udf
from repro.video import TrafficVideo

NUM_FRAMES = 480
BOOTSTRAP = 240
FPS = 30.0  # TrafficVideo's frame rate
WINDOW_FRAMES = 200
WINDOW_SECONDS = WINDOW_FRAMES / FPS

#: Small-but-real engine configuration so each example stays fast.
STREAM_CONFIG = EverestConfig(
    phase1=Phase1Config(
        sample_fraction=0.05,
        min_train_samples=96,
        holdout_samples=48,
        cmdn_grid=((3, 12),),
        epochs=15,
    ),
)


def make_source() -> TrafficVideo:
    return TrafficVideo("window-eq", NUM_FRAMES, seed=17)


def open_window_stream(window_frames: int = WINDOW_FRAMES,
                       **kwargs) -> Session:
    return Session.open_stream(
        make_source(), counting_udf("car"), initial_frames=BOOTSTRAP,
        window_seconds=window_frames / FPS, config=STREAM_CONFIG,
        **kwargs)


def build_query(session):
    return session.query().topk(3).guarantee(0.85)


#: Batch reference reports, one per distinct window snapshot.
_BATCH_REF: Dict[Tuple[int, int, int], str] = {}


def batch_reference(stream) -> str:
    """The from-scratch batch bytes for the stream's current window.

    ``batch_session()`` seals the prefix (horizon included), and a
    plain batch query over the sealed :class:`~repro.video.streaming.StreamingVideo` compiles
    to the same window-restricted plan — no streaming machinery on
    the reference side at all.
    """
    key = (stream.watermark, stream.horizon, stream.window_frames)
    if key not in _BATCH_REF:
        batch = stream.batch_session()
        _BATCH_REF[key] = build_query(batch).run().to_json()
    return _BATCH_REF[key]


def random_events(seed: int,
                  window_frames: int) -> List[Tuple[str, int]]:
    """Draw 2..5 interleaved append/tick events that stay legal."""
    rng = np.random.default_rng(seed)
    events: List[Tuple[str, int]] = []
    watermark, horizon = BOOTSTRAP, BOOTSTRAP
    for _ in range(int(rng.integers(2, 6))):
        remaining = NUM_FRAMES - watermark
        # tick() refuses to empty the window: keep at least one frame.
        max_tick = watermark + window_frames - horizon - 1
        kinds = []
        if remaining > 0:
            kinds.append("append")
        if max_tick >= 1:
            kinds.append("tick")
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "append":
            size = int(rng.integers(1, remaining + 1))
            watermark += size
            horizon = max(horizon, watermark)
        else:
            size = int(rng.integers(1, max_tick + 1))
            horizon += size
        events.append((kind, size))
    return events


@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**9))
def test_windowed_reports_bit_identical_for_any_schedule(seed):
    events = random_events(seed, WINDOW_FRAMES)
    stream = open_window_stream()
    live = build_query(stream).subscribe()
    assert live.latest.to_json() == batch_reference(stream)
    delivered = 1
    for kind, size in events:
        result = stream.append(size) if kind == "append" \
            else stream.tick(size)
        # One report per event — delivered AND identical to a fresh
        # batch run over the window snapshot, byte for byte.
        assert len(result.reports) == 1
        assert result.reports[0].to_json() == live.latest.to_json()
        assert live.latest.to_json() == batch_reference(stream)
        delivered += len(result.reports)
    assert delivered == len(events) + 1
    assert stream.window_lo == max(0, stream.horizon - WINDOW_FRAMES)


def test_every_event_matches_batch_ledger_charge_for_charge():
    stream = open_window_stream()
    live = build_query(stream).subscribe()
    for kind, size in [("append", 90), ("tick", 40), ("append", 150),
                       ("tick", 120)]:
        stream.append(size) if kind == "append" else stream.tick(size)
        batch = stream.batch_session()
        reference = build_query(batch).run()
        assert live.latest.to_json() == reference.to_json()
        # The Phase-1 ledgers agree charge for charge, not just in the
        # report projection: same units and the same float seconds.
        live_ledger = stream.phase1().cost_model
        batch_ledger = batch.phase1().cost_model
        assert live_ledger.breakdown() == batch_ledger.breakdown()
        for key in live_ledger.breakdown():
            assert live_ledger.units(key) == batch_ledger.units(key)


def test_window_spanning_full_history_keeps_every_frame():
    # A window as long as the whole source never expires anything:
    # the windowed answer must equal the unwindowed one.
    stream = open_window_stream(window_frames=NUM_FRAMES)
    live = build_query(stream).subscribe()
    stream.append(140)
    stream.tick(50)
    stream.append(100)
    assert stream.window_lo == 0
    assert live.latest.to_json() == batch_reference(stream)
    plain = Session.open_stream(
        make_source(), counting_udf("car"), initial_frames=BOOTSTRAP,
        config=STREAM_CONFIG)
    plain.append(140)
    plain.append(100)
    reference = build_query(plain.batch_session()).run()
    assert live.latest.answer_ids == reference.answer_ids
    assert live.latest.answer_scores == reference.answer_scores
    assert live.latest.num_tuples == reference.num_tuples


def test_window_smaller_than_one_inference_block():
    # 64 frames is far below the 512-frame inference block: eviction
    # and rebuild operate inside a single block.
    stream = open_window_stream(window_frames=64)
    live = build_query(stream).subscribe()
    assert stream.window_lo == BOOTSTRAP - 64
    for kind, size in [("append", 80), ("tick", 30), ("append", 160),
                       ("tick", 60)]:
        stream.append(size) if kind == "append" else stream.tick(size)
        assert live.latest.to_json() == batch_reference(stream)
        # The diff detector may drop near-duplicates, so the relation
        # holds at most (never more than) the window's frames.
        assert live.latest.num_tuples <= stream.watermark - stream.window_lo


def test_windowed_process_lane_matches_inline():
    stream = open_window_stream()
    stream.append(120)
    stream.tick(60)
    inline = build_query(stream).run()
    # Streaming state is single-process, so the process lane runs on
    # the batch side: a pooled run over the window snapshot must land
    # on the same bytes as the live windowed answer.
    serial = stream.execute(build_query(stream).plan())
    batch = stream.batch_session()
    with QueryService(workers=2, use_processes=True) as service:
        process = service.submit(build_query(batch)).result(240)
    assert inline.to_json() == serial.to_json()
    assert inline.to_json() == process.to_json()
    assert inline.to_json() == batch_reference(stream)


def test_service_hosted_windowed_stream_round_trip():
    with QueryService() as service:
        stream = service.open_stream(
            make_source(), counting_udf("car"),
            initial_frames=BOOTSTRAP, window_seconds=WINDOW_SECONDS,
            config=STREAM_CONFIG)
        assert stream.window_frames is not None
        live = build_query(stream).subscribe()
        stream.append(120)
        result = stream.tick(80)
        # The expiry refresh went through the scheduler dispatcher and
        # still produced the exact batch bytes.
        assert len(result.reports) == 1
        assert live.latest.to_json() == batch_reference(stream)


def test_resume_restores_window_state_and_equivalence(tmp_path):
    path = tmp_path / "store"
    stream = open_window_stream()
    live = build_query(stream).subscribe()
    stream.append(120)
    stream.tick(60)
    stream.checkpoint(path)

    resumed = Session.resume(path)
    assert resumed.window_frames is not None
    assert resumed.horizon == stream.horizon
    assert resumed.window_frames == stream.window_frames
    assert resumed.window_lo == stream.window_lo
    assert len(resumed.segments) == len(stream.segments) == 2
    re_live = build_query(resumed).subscribe()
    assert re_live.latest.to_json() == live.latest.to_json()

    # Events after resume continue the equivalence.
    resumed.append(60)
    resumed.tick(40)
    assert re_live.latest.to_json() == batch_reference(resumed)


# ----------------------------------------------------------------------
# Validation corners
# ----------------------------------------------------------------------
def test_windowed_video_tick_and_snapshot_validation():
    video = StreamingVideo(
        make_source(), BOOTSTRAP, window_seconds=WINDOW_SECONDS)
    with pytest.raises(ConfigurationError):
        video.tick(0)
    with pytest.raises(ConfigurationError):
        video.tick(2.5)
    with pytest.raises(ConfigurationError):
        video.tick(True)
    assert video.horizon == BOOTSTRAP
    # Advancing the clock until no arrived frame remains in the window
    # is refused (an empty window has no Top-K answer)...
    with pytest.raises(VideoError):
        video.tick(WINDOW_FRAMES)
    # ...but one frame short of that is fine, counted by any integral
    # number (the query builder's rule too).
    assert video.tick(np.int64(WINDOW_FRAMES - 1)) \
        == BOOTSTRAP + WINDOW_FRAMES - 1
    assert type(video.horizon) is int
    assert video.window_lo == BOOTSTRAP - 1

    snap = video.snapshot()
    assert snap.sealed
    assert snap.horizon == video.horizon
    assert snap.window_lo == video.window_lo
    with pytest.raises(VideoError):
        snap.tick(1)


def test_window_clause_validation_and_narrower_windows():
    stream = open_window_stream()
    query = stream.query().topk(3).guarantee(0.85)
    with pytest.raises(QueryError):
        query.window(seconds=0)
    with pytest.raises(QueryError):
        query.window(seconds=float("inf"))
    with pytest.raises(QueryError):
        query.windows(size=25).window(seconds=1.0)
    with pytest.raises(QueryError):
        query.window(seconds=1.0).windows(size=25)
    # Wider than the session's window: those frames are gone.
    with pytest.raises(QueryError):
        query.window(seconds=WINDOW_SECONDS * 4).plan()
    # Narrower is a legitimate refinement, still batch-equivalent.
    narrower = query.window(seconds=100 / FPS)
    batch = stream.batch_session()
    reference = batch.query().topk(3).guarantee(0.85) \
        .window(seconds=100 / FPS).run()
    assert narrower.run().to_json() == reference.to_json()


def test_fully_expired_window_is_a_clean_error():
    stream = open_window_stream()
    stream.tick(150)  # horizon 390, watermark still 240
    # An explicit 100-frame window would start at 290 >= 240: expired.
    query = stream.query().topk(3).guarantee(0.85) \
        .window(seconds=100 / FPS)
    with pytest.raises(QueryError):
        query.plan()


def test_windowed_session_constructor_guards():
    udf = counting_udf("car")
    with pytest.raises(QueryError, match="initial_frames"):
        Session.open_stream(make_source(), udf,
                            window_seconds=WINDOW_SECONDS)
    from repro.video.streaming import StreamingVideo
    with pytest.raises(QueryError, match="conflicts"):
        Session.open_stream(StreamingVideo(make_source(), BOOTSTRAP), udf,
                            window_seconds=WINDOW_SECONDS)
    video = StreamingVideo(
        make_source(), BOOTSTRAP, window_seconds=WINDOW_SECONDS)
    with pytest.raises(QueryError, match="conflicts"):
        Session.open_stream(video, udf, window_seconds=WINDOW_SECONDS * 2)
    with pytest.raises(QueryError, match="initial_frames is implied"):
        Session.open_stream(video, udf, initial_frames=BOOTSTRAP)
    with pytest.raises(QueryError, match="sealed"):
        Session.open_stream(video.snapshot(), udf)
    # The video's own window is the session's.
    assert Session.open_stream(video, udf).window_frames == WINDOW_FRAMES

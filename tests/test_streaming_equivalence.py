"""Equivalence certification for the streaming subsystem.

The acceptance contract (mirroring ``test_parallel_equivalence.py``):
after any schedule of appends, a live subscription's report — answer,
confidence, *and* deterministic-timing ledgers — is byte-identical
(``QueryReport.to_json``) to a from-scratch batch run of the engine
over the same frames under the session's pinned training policy.
Schedules are drawn by hypothesis; the batch reference at the final
watermark is computed once and shared across examples, so every drawn
schedule is certified against the same bytes (which also certifies
schedule-invariance of the live answer).

Also pinned here: per-append (not just final) batch equivalence, the
Phase-1 ledger arithmetic, and zero-fresh-oracle resume.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import EverestConfig, Session
from repro.config import Phase1Config
from repro.oracle import counting_udf
from repro.video import TrafficVideo

NUM_FRAMES = 480
BOOTSTRAP = 240

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
    return TrafficVideo("stream-eq", NUM_FRAMES, seed=17)


def open_stream(**kwargs) -> "Session":
    return Session.open_stream(
        make_source(), counting_udf("car"), initial_frames=BOOTSTRAP,
        config=STREAM_CONFIG, **kwargs)


def build_query(session, kind: str):
    query = session.query().guarantee(0.85)
    if kind == "windows":
        return query.windows(size=25).topk(2)
    return query.topk(3)


#: Batch reference reports, computed once per (watermark, query kind).
_BATCH_REF: Dict[Tuple[int, str], str] = {}


def batch_reference(stream, kind: str) -> str:
    key = (stream.watermark, kind)
    if key not in _BATCH_REF:
        batch = stream.batch_session()
        _BATCH_REF[key] = build_query(batch, kind).run().to_json()
    return _BATCH_REF[key]


def random_schedule(seed: int) -> List[int]:
    """Partition the post-bootstrap frames into 1..4 appends."""
    rng = np.random.default_rng(seed)
    remaining = NUM_FRAMES - BOOTSTRAP
    parts = int(rng.integers(1, 5))
    cuts = np.sort(rng.choice(
        np.arange(1, remaining), size=parts - 1, replace=False))
    sizes = np.diff(np.concatenate(([0], cuts, [remaining])))
    return [int(s) for s in sizes if s > 0]


@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**9))
def test_live_topk_bit_identical_to_batch_for_any_schedule(seed):
    schedule = random_schedule(seed)
    stream = open_stream()
    frames = build_query(stream, "frames").subscribe()
    windows = build_query(stream, "windows").subscribe()
    results = [stream.append(size) for size in schedule]
    assert stream.watermark == NUM_FRAMES

    # Reports (answer + breakdown ledgers) equal the from-scratch batch
    # run byte for byte — and, since the reference is shared across
    # examples, every schedule converged to the same bytes.
    assert frames.latest.to_json() == batch_reference(stream, "frames")
    assert windows.latest.to_json() == batch_reference(stream, "windows")
    # One report per append and subscription, the last the latest.
    assert [len(result.reports) for result in results] \
        == [2] * len(schedule)
    assert results[-1].reports == [frames.latest, windows.latest]
    # Labelling happened once, at bootstrap: appends are label-free.
    expected_labels = stream.phase1().oracle_calls
    assert stream._maintainer.label_oracle.fresh_calls == expected_labels
    assert [result.fresh_label_calls for result in results] \
        == [0] * len(schedule)


def test_every_append_matches_batch_over_its_prefix():
    stream = open_stream()
    live = build_query(stream, "frames").subscribe()
    for size in (60, 130, 50):
        stream.append(size)
        batch = stream.batch_session()
        reference = build_query(batch, "frames").run()
        assert live.latest.to_json() == reference.to_json()
        # The Phase-1 ledgers agree charge for charge, not just in the
        # report projection: same units and the same float seconds.
        live_ledger = stream.phase1().cost_model
        batch_ledger = batch.phase1().cost_model
        assert live_ledger.breakdown() == batch_ledger.breakdown()
        for key in live_ledger.breakdown():
            assert live_ledger.units(key) == batch_ledger.units(key)


def test_resume_is_equivalence_preserving_and_label_free(tmp_path):
    path = tmp_path / "store"
    stream = open_stream()
    live = build_query(stream, "frames").subscribe()
    stream.append(90)
    stream.checkpoint(path)

    resumed = Session.resume(path)
    labels = resumed._maintainer.label_oracle
    labels_before = labels.fresh_calls
    re_live = build_query(resumed, "frames").subscribe()
    # Re-serving the checkpointed watermark reveals nothing new: zero
    # Phase-1 oracle calls and zero fresh confirmations.
    assert labels.fresh_calls == labels_before
    assert re_live.detail.fresh_confirm_calls == 0
    assert re_live.latest.to_json() == live.latest.to_json()

    # Appends after resume continue the equivalence.
    resumed.append(150)
    batch = resumed.batch_session()
    assert re_live.latest.to_json() == \
        build_query(batch, "frames").run().to_json()


def test_streaming_session_rejects_foreign_phase1_configs():
    from repro.errors import QueryError

    stream = open_stream()
    other = EverestConfig(seed=123)
    with pytest.raises(QueryError):
        stream.phase1(other)
    with pytest.raises(QueryError):
        stream.adopt_phase1(None)

"""Phase 1 is one pass over the pixels (DESIGN.md §3, §7).

``run_phase1`` (and a streaming bootstrap — the same maintainer)
renders a frame at most once while detecting differences *and*
inferring — plus the labelled sample batch once — yet produces exactly
what the two separate passes produced: the same ``DiffResult``, the
same mixtures at the same BLAS batch boundaries, the same relation and
the same charge sequence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session
from repro.config import DiffDetectorConfig, EverestConfig, Phase1Config
from repro.core.phase1 import (
    _INFER_CHUNK,
    RowChunker,
    predict_mixtures_chunked,
    replay_phase1_charges,
    run_phase1,
)
from repro.core.uncertain import build_relation
from repro.oracle import CostModel, Oracle, counting_udf
from repro.video import DifferenceDetector, TrafficVideo
from repro.video.diff import process_clip

from conftest import CountingTraffic

#: Long enough that the retained rows span two inference chunks.
NUM_FRAMES = 2_600

PHASE1 = Phase1Config(
    sample_fraction=0.05,
    min_train_samples=96,
    holdout_samples=48,
    cmdn_grid=((3, 12),),
    epochs=10,
)
DIFF = DiffDetectorConfig()


class RecordingCostModel(CostModel):
    """A ledger that also remembers its charge sequence."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sequence = []

    def charge(self, key, units=1.0):
        self.sequence.append((key, units))
        return super().charge(key, units)


def two_pass_diff(video, config):
    """The pre-fusion detector: one ``process_clip`` render per clip."""
    num_frames = len(video)
    representative = np.empty(num_frames, dtype=np.int64)
    retained_mask = np.zeros(num_frames, dtype=bool)
    c = config.clip_size
    for s in range(0, num_frames, c):
        indices = np.arange(s, min(s + c, num_frames), dtype=np.int64)
        keep = process_clip(video, indices, config.mse_threshold)
        retained_mask[indices[keep]] = True
        representative[indices] = np.where(
            keep, indices, indices[len(indices) // 2])
    return np.flatnonzero(retained_mask), representative


def run(video):
    cost = RecordingCostModel(wall_clock=False)
    oracle = Oracle(counting_udf("car"), cost_key="oracle_label")
    result = run_phase1(
        video, oracle, config=PHASE1, diff_config=DIFF, cost_model=cost,
        seed=3)
    return result, oracle, cost


@pytest.fixture(scope="module")
def single_pass():
    video = CountingTraffic("single-pass", NUM_FRAMES, seed=21)
    return (video,) + run(video)


def test_every_frame_is_rendered_once_plus_the_sample_batch(single_pass):
    video, result, _, _ = single_pass
    samples = set(result.known_scores)
    assert result.diff_result.num_retained > _INFER_CHUNK
    assert set(video.rendered) == set(range(NUM_FRAMES))
    for frame, renders in video.rendered.items():
        # Labelling reads annotations and renders nothing; a sampled
        # frame is rendered for the training batch and for the pass.
        assert renders == (2 if frame in samples else 1)
    assert sum(video.rendered.values()) == NUM_FRAMES + len(samples)


def test_single_pass_equals_the_two_pass_result(single_pass):
    reference_video = TrafficVideo("single-pass", NUM_FRAMES, seed=21)
    result, oracle, _ = run(
        TrafficVideo("single-pass", NUM_FRAMES, seed=21))

    retained, representative = two_pass_diff(reference_video, DIFF)
    np.testing.assert_array_equal(result.diff_result.retained, retained)
    np.testing.assert_array_equal(
        result.diff_result.representative, representative)
    assert result.diff_result.num_frames == NUM_FRAMES
    detached = DifferenceDetector(DIFF).run(reference_video)
    np.testing.assert_array_equal(detached.retained, retained)
    np.testing.assert_array_equal(detached.representative, representative)

    mixtures = predict_mixtures_chunked(
        result.proxy, reference_video, retained)
    for name in ("pi", "mu", "sigma"):
        np.testing.assert_array_equal(
            getattr(result.mixtures, name), getattr(mixtures, name))

    relation = build_relation(
        retained, mixtures,
        floor=oracle.scoring.score_floor, step=oracle.scoring.step,
        known_scores=result.known_scores,
        truncate_sigmas=PHASE1.truncate_sigmas)
    np.testing.assert_array_equal(result.relation.ids, relation.ids)
    np.testing.assert_array_equal(result.relation.pmf, relation.pmf)
    np.testing.assert_array_equal(result.relation.certain, relation.certain)
    np.testing.assert_array_equal(
        result.relation.exact_scores, relation.exact_scores)
    assert result.relation.grid == relation.grid

    # ... and a second run changes nothing at all.
    _, baseline, _, _ = single_pass
    for name in ("pi", "mu", "sigma"):
        np.testing.assert_array_equal(
            getattr(result.mixtures, name), getattr(baseline.mixtures, name))


def test_charge_sequence_still_equals_the_replay(single_pass):
    _, result, _, cost = single_pass
    train = PHASE1.train_sample_size(NUM_FRAMES)
    holdout = len(result.known_scores) - train
    replayed = RecordingCostModel(wall_clock=False)
    replay_phase1_charges(
        replayed,
        train_labels=train,
        holdout_labels=holdout,
        sample_epochs=result.grid_result.sample_epochs,
        num_frames=NUM_FRAMES,
        num_retained=result.diff_result.num_retained,
    )
    assert cost.sequence == replayed.sequence
    # One function writes both, so also pin the sequence itself.
    assert cost.sequence == [
        ("oracle_label", train),
        ("oracle_label", holdout),
        ("decode", train + holdout),
        ("cmdn_train", result.grid_result.sample_epochs),
        ("diff_detect", NUM_FRAMES),
        ("decode", NUM_FRAMES),
        ("cmdn_infer", result.diff_result.num_retained),
    ]
    assert cost.breakdown() == replayed.breakdown()
    assert cost.total_seconds() == replayed.total_seconds()


# ----------------------------------------------------------------------
# RowChunker: fixed boundaries whatever the producer's block size

def test_row_chunker_regroups_at_fixed_boundaries():
    rng = np.random.default_rng(0)
    ids = np.arange(1_000, dtype=np.int64)
    pixels = rng.random((1_000, 2, 3)).astype(np.float32)
    seen = []
    chunker = RowChunker(
        256, lambda number, i, p: seen.append((number, i, p)))
    start = 0
    while start < ids.size:
        size = int(rng.integers(0, 400))
        chunker.push(ids[start:start + size], pixels[start:start + size])
        start += size
    chunker.close()
    chunker.close()  # idempotent: nothing pending
    assert [number for number, _, _ in seen] == [0, 1, 2, 3]
    assert [len(i) for _, i, _ in seen] == [256, 256, 256, 232]
    np.testing.assert_array_equal(
        np.concatenate([i for _, i, _ in seen]), ids)
    np.testing.assert_array_equal(
        np.concatenate([p for _, _, p in seen]), pixels)
    # Every chunk is the consumer's to keep: no buffer is reused.
    assert not any(
        np.shares_memory(a[2], b[2])
        for n, a in enumerate(seen) for b in seen[n + 1:])


# ----------------------------------------------------------------------
# A streaming bootstrap is the same single pass

STREAM_CONFIG = EverestConfig(phase1=PHASE1)


@pytest.mark.parametrize("window_seconds", [None, 20.0])
def test_bootstrap_renders_once_and_infers_each_row_once(window_seconds):
    video = CountingTraffic("boot", 1_500, seed=23)
    stream = Session.open_stream(
        video, counting_udf("car"), initial_frames=1_400,
        window_seconds=window_seconds, config=STREAM_CONFIG)
    entry = stream.phase1()
    retained = entry.result.diff_result.retained
    samples = set(entry.result.known_scores)
    # More than one inference block, and (windowed) a leading block
    # that has already slid out of the window at bootstrap.
    assert retained.size > 1_024
    for frame, renders in video.rendered.items():
        assert renders == (2 if frame in samples else 1)
    assert set(video.rendered) == set(range(1_400))
    assert stream.stats.fresh_inferred_frames == retained.size

    # Bit-identical to the batch engine over the same prefix.
    batch = Session(
        stream.video.snapshot(), counting_udf("car"), config=stream.config)
    reference = batch.phase1().result
    np.testing.assert_array_equal(
        reference.diff_result.retained, retained)
    if window_seconds is None:
        np.testing.assert_array_equal(
            reference.mixtures.mu, entry.result.mixtures.mu)
        np.testing.assert_array_equal(
            reference.relation.pmf, entry.result.relation.pmf)
    else:
        cut = reference.mixtures.mu.shape[0] \
            - entry.result.mixtures.mu.shape[0]
        assert cut > 512
        np.testing.assert_array_equal(
            reference.mixtures.mu[cut:], entry.result.mixtures.mu)

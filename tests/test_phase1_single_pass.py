"""Phase 1 is one pass over the pixels (DESIGN.md §3, §7).

``run_phase1`` (and a streaming bootstrap — the same maintainer)
renders every frame exactly once, sampled or not, and featurizes every
row it needs exactly once — the labelled sample is rendered and
featurized for training and the scan fills those rows in by frame id —
yet produces exactly what the separate passes produced: the same
``DiffResult``, the same mixtures at the same BLAS batch boundaries,
the same relation and the same charge sequence. The build it replaced
(sample rendered for training, then again by the scan) is kept below as
:func:`two_render_bootstrap`, a test reference.
"""

from __future__ import annotations

import contextlib
import os
import pickle

import numpy as np
import pytest

from repro.api import Session
from repro.config import DiffDetectorConfig, EverestConfig, Phase1Config
from repro.core.phase1 import (
    _INFER_CHUNK,
    Phase1Maintainer,
    RowChunker,
    _sample_indices,
    predict_mixtures_chunked,
    replay_phase1_charges,
    run_phase1,
)
from repro.core.uncertain import build_relation
from repro.models import train_proxy_grid
from repro.models.cmdn import FeatureMDNProxy
from repro.models.trainer import proxy_family
from repro.oracle import CostModel, Oracle, counting_udf
from repro.parallel.pool import PersistentPool
from repro.service.backend import build_in_pool, ship_spec
from repro.trace import Tracer
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


def two_render_bootstrap(self, cost_model=None):
    """``Phase1Maintainer.bootstrap`` as it was before the scan reused
    the sample's rows: the labelled frames are rendered and featurized
    for ``train_proxy_grid`` (which then did both itself), then again
    by the scan. Installed with ``monkeypatch.setattr``."""
    video, phase1, seed = self.video, self.config.phase1, self.config.seed
    rng = np.random.default_rng(seed)
    pool = phase1.sample_pool(len(video))
    train_idx, holdout_idx = _sample_indices(
        rng, pool, phase1.train_sample_size(pool),
        phase1.holdout_sample_size(pool))
    train_scores = self.label_oracle.score(video, train_idx)
    holdout_scores = self.label_oracle.score(video, holdout_idx)
    for idx, score in zip(train_idx, train_scores):
        self.known_scores[int(idx)] = float(score)
    for idx, score in zip(holdout_idx, holdout_scores):
        self.known_scores[int(idx)] = float(score)
    self.train_idx, self.holdout_idx = train_idx, holdout_idx
    featurize = proxy_family(phase1, video.resolution)[0].featurize
    self.grid_result = train_proxy_grid(
        featurize(video.batch_pixels(train_idx)),
        train_scores,
        featurize(video.batch_pixels(holdout_idx)),
        holdout_scores,
        config=phase1,
        input_hw=video.resolution,
        seed=seed,
    )
    self.scan_arrivals()
    return self.rebuild_entry(cost_model)


@contextlib.contextmanager
def featurized_rows():
    """The batch sizes the feature family's ``featurize`` is called
    with (by the trainer, a bootstrap and the block cache alike)."""
    calls = []
    featurize = FeatureMDNProxy.featurize

    def counting(pixels):
        calls.append(len(pixels))
        return featurize(pixels)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FeatureMDNProxy, "featurize", staticmethod(counting))
        yield calls


def run(video):
    cost = RecordingCostModel()
    entry = run_phase1(
        video, counting_udf("car"), None,
        EverestConfig(phase1=PHASE1, diff=DIFF, seed=3), cost_model=cost)
    return entry, entry.oracle_calls, cost


def unretained_samples(result) -> int:
    return len(set(result.known_scores)
               - set(result.diff_result.retained.tolist()))


@pytest.fixture(scope="module")
def single_pass():
    video = CountingTraffic("single-pass", NUM_FRAMES, seed=21)
    with featurized_rows() as featurized:
        built = run(video)
    return (video,) + built + (featurized,)


def test_every_frame_is_rendered_exactly_once(single_pass):
    video, result, labels, _, _ = single_pass
    assert result.diff_result.num_retained > _INFER_CHUNK
    # Labelling reads annotations and renders nothing; a sampled frame
    # is rendered for training and the pass takes its pixels from there.
    assert set(video.rendered) == set(range(NUM_FRAMES))
    assert sum(video.rendered.values()) == len(video) == NUM_FRAMES
    assert labels == len(result.known_scores) == 130 + 48  # 5 % of them


def test_every_row_is_featurized_exactly_once(single_pass):
    _, result, _, _, featurized = single_pass
    # The whole sample in one batch, then what each block still lacks:
    # a retained row once, a sampled row never again.
    assert featurized[0] == len(result.known_scores)
    assert 0 < unretained_samples(result) < len(result.known_scores)
    assert sum(featurized) == \
        result.diff_result.num_retained + unretained_samples(result)


def test_the_two_render_build_is_the_same_build_with_more_work(monkeypatch):
    def build():
        video = CountingTraffic("single-pass", NUM_FRAMES, seed=21)
        maintainer = Phase1Maintainer(
            video, Oracle(counting_udf("car"), cost_key="oracle_label"),
            EverestConfig(phase1=PHASE1, diff=DIFF, seed=3))
        with featurized_rows() as featurized:
            entry = maintainer.bootstrap()
        return video, maintainer, entry, sum(featurized)

    video, maintainer, entry, featurized = build()
    monkeypatch.setattr(Phase1Maintainer, "bootstrap", two_render_bootstrap)
    ref_video, ref_maintainer, reference, ref_featurized = build()

    samples, retained = len(entry.known_scores), \
        entry.diff_result.num_retained
    assert sum(ref_video.rendered.values()) == NUM_FRAMES + samples
    assert sum(video.rendered.values()) == NUM_FRAMES
    assert ref_featurized == retained + samples
    assert featurized == retained + unretained_samples(entry)

    for name in ("pi", "mu", "sigma"):
        assert getattr(entry.mixtures, name).tobytes() == \
            getattr(reference.mixtures, name).tobytes()
    assert entry.relation.pmf.tobytes() == \
        reference.relation.pmf.tobytes()
    assert entry.cost_model.breakdown() == reference.cost_model.breakdown()
    history, ref_history = (
        e.grid_result.histories[0] for e in (entry, reference))
    assert history.epoch_losses == ref_history.epoch_losses
    assert history.holdout_nll == ref_history.holdout_nll

    # The sample's rows were held for the bootstrap only: nothing new
    # on the maintainer, in its pickle (a checkpoint) or in a shipped
    # spec.
    assert list(vars(maintainer)) == list(vars(ref_maintainer))
    assert len(pickle.dumps(maintainer)) == len(pickle.dumps(ref_maintainer))
    session = Session(
        video, counting_udf("car"), config=maintainer.config)
    assert len(ship_spec(session, [(session.config, entry)]).blob) == \
        len(ship_spec(session, [(session.config, reference)]).blob)


def test_single_pass_equals_the_two_pass_result(single_pass):
    reference_video = TrafficVideo("single-pass", NUM_FRAMES, seed=21)
    result, _, _ = run(TrafficVideo("single-pass", NUM_FRAMES, seed=21))
    scoring = counting_udf("car")

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
        floor=scoring.score_floor, step=scoring.step,
        known_scores=result.known_scores)
    np.testing.assert_array_equal(result.relation.ids, relation.ids)
    np.testing.assert_array_equal(result.relation.pmf, relation.pmf)
    np.testing.assert_array_equal(result.relation.certain, relation.certain)
    np.testing.assert_array_equal(
        result.relation.exact_scores, relation.exact_scores)
    assert result.relation.grid == relation.grid

    # ... and a second run changes nothing at all.
    _, baseline, _, _, _ = single_pass
    for name in ("pi", "mu", "sigma"):
        np.testing.assert_array_equal(
            getattr(result.mixtures, name), getattr(baseline.mixtures, name))


def test_charge_sequence_still_equals_the_replay(single_pass):
    _, result, _, cost, _ = single_pass
    train = PHASE1.train_sample_size(NUM_FRAMES)
    holdout = len(result.known_scores) - train
    replayed = RecordingCostModel()
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
    with featurized_rows() as featurized:
        entry = stream.phase1()
    retained = entry.diff_result.retained
    # More than one inference block, and (windowed) a leading block
    # that has already slid out of the window at bootstrap.
    assert retained.size > 1_024
    assert set(video.rendered) == set(range(1_400))
    assert sum(video.rendered.values()) == len(stream.video) == 1_400
    assert sum(featurized) == retained.size + unretained_samples(entry)
    assert stream._maintainer.fresh_inferred_frames == retained.size

    # Bit-identical to the batch engine over the same prefix.
    batch = Session(
        stream.video.snapshot(), counting_udf("car"), config=stream.config)
    reference = batch.phase1()
    np.testing.assert_array_equal(
        reference.diff_result.retained, retained)
    if window_seconds is None:
        np.testing.assert_array_equal(
            reference.mixtures.mu, entry.mixtures.mu)
        np.testing.assert_array_equal(
            reference.relation.pmf, entry.relation.pmf)
    else:
        cut = reference.mixtures.mu.shape[0] \
            - entry.mixtures.mu.shape[0]
        assert cut > 512
        np.testing.assert_array_equal(
            reference.mixtures.mu[cut:], entry.mixtures.mu)

    # Afterwards an append pays for what arrived: exactly the arrivals
    # rendered (the provisional clip's pixels are kept from the last
    # scan), their newly retained rows featurized once; a tick touches
    # no frame at all.
    clip = stream.config.diff.clip_size
    rendered = sum(video.rendered.values())
    with featurized_rows() as featurized:
        stream.append(70)
        grown = stream.phase1().diff_result.retained
        assert sum(video.rendered.values()) - rendered == 70
        # (The re-decided clip's rows that stay retained are still in
        # the tail block's kept feature rows.)
        assert sum(featurized) == np.count_nonzero(
            ~np.isin(grown[grown >= 1_400 - 1_400 % clip], retained))
        if window_seconds is not None:
            featurized.clear()
            stream.tick(45)
            assert not featurized
            assert sum(video.rendered.values()) - rendered == 70


def _directory_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(path, name))
               for name in os.listdir(path))


def test_a_stream_built_either_way_checkpoints_and_appends_alike(
        tmp_path, monkeypatch):
    def open_stream(name):
        stream = Session.open_stream(
            TrafficVideo("twin", 900, seed=29), counting_udf("car"),
            initial_frames=600, config=STREAM_CONFIG)
        live = stream.query().topk(5).guarantee(0.85).subscribe()
        stream.checkpoint(tmp_path / name)
        return stream, live

    stream, live = open_stream("one-render")
    monkeypatch.setattr(Phase1Maintainer, "bootstrap", two_render_bootstrap)
    twin, twin_live = open_stream("two-render")
    assert _directory_bytes(tmp_path / "one-render") \
        == _directory_bytes(tmp_path / "two-render")
    assert live.latest.to_json() == twin_live.latest.to_json()

    for s in (stream, twin):
        s.append(150)
    assert live.latest.to_json() == twin_live.latest.to_json()
    assert stream.phase1().mixtures.mu.tobytes() \
        == twin.phase1().mixtures.mu.tobytes()
    assert stream.phase1().cost_model.total_seconds() \
        == twin.phase1().cost_model.total_seconds()


# ----------------------------------------------------------------------
# ... in a pool worker too, and the trace still says what a block cost

class RenderLogTraffic(TrafficVideo):
    """Appends every rendered frame id to a file, so a copy rendering
    in another process is counted too."""

    def __init__(self, *args, log, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = str(log)

    def _render(self, indices):
        with open(self.log, "a") as log:
            log.write(" ".join(map(str, indices.tolist())) + "\n")
        return super()._render(indices)


def test_a_pooled_build_renders_each_frame_once_in_the_worker(tmp_path):
    video = RenderLogTraffic(
        "pooled", 1_200, seed=31, log=tmp_path / "renders")
    session = Session(video, counting_udf("car"), config=STREAM_CONFIG)
    with PersistentPool(1) as pool:
        entry = build_in_pool(
            pool, video, session.scoring, session.resolved_unit_costs(),
            session.config)
    assert entry.diff_result.num_frames == 1_200
    rendered = (tmp_path / "renders").read_text().split()
    assert sorted(map(int, rendered)) == list(range(1_200))


def test_block_miss_spans_of_a_build_say_what_each_block_cost():
    session = Session(
        TrafficVideo("spans", 1_500, seed=23), counting_udf("car"),
        config=STREAM_CONFIG)
    tracer = Tracer()
    with tracer.trace("build") as trace:
        result = session.phase1()
    misses = [span.attrs for span in trace.spans
              if span.name == "block_miss"]
    retained = result.diff_result.retained
    assert [miss["block"] for miss in misses] \
        == list(range(-(-retained.size // 512)))
    assert sum(miss["rows"] for miss in misses) == retained.size
    # What a block featurized is what the sample did not cover, and at
    # a build every such row's pixels come from the scan.
    sampled = np.isin(retained, sorted(result.known_scores))
    assert sampled.any()
    assert [miss["rows_featurized"] for miss in misses] == [
        int(np.count_nonzero(~sampled[lo:lo + 512]))
        for lo in range(0, retained.size, 512)]
    assert all(miss["rows_from_scan"] == miss["rows_featurized"]
               for miss in misses)

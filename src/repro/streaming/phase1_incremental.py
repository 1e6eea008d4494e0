"""Incremental Phase-1 maintenance for streaming sessions (DESIGN.md §7).

A batch run pays Phase 1 — labelling, CMDN grid training, difference
detection, proxy inference — once per video. Under appends the naive
approach re-pays all of it per arrival. This module maintains the
Phase-1 artifacts *incrementally* while keeping them **bit-identical**
to a from-scratch batch run over the current prefix (under the pinned
``sample_prefix`` training policy), so the live engine inherits the
batch engine's guarantees verbatim:

* :class:`IncrementalDiff` re-runs the MSE detector only over clips
  that gained frames. Clips are aligned to global frame indices (as in
  the batch detector), so completed clips never change and the one
  *provisional* clip straddling the old watermark is reprocessed when
  it grows — its anchor frame moves, which can flip retain decisions.
* :class:`BlockInferenceCache` caches proxy inference per 512-frame
  block of the retained array. Blocks — not arbitrary deltas — because
  BLAS matmul accumulation differs across batch shapes: scoring a
  delta in a different batch than the batch engine would perturbs the
  mixtures in the last ulp and breaks bit-equivalence. 512 equals the
  network's internal prediction batch and divides the chunk size
  :func:`~repro.core.phase1.run_phase1` scores at, so block
  boundaries coincide exactly with the batch engine's sub-batches.
* :class:`DriftTracker` audits a small oracle-labelled sample of each
  append and compares the proxy's NLL on it against the bootstrap
  holdout reference; sustained excess triggers a *warm retrain*
  (continue training the current weights on bootstrap + audited
  labels). Auditing and retraining charge the ledger honestly and mark
  the session as diverged from the batch reference.

The maintainer rebuilds the uncertain relation from cached mixtures on
every append (:func:`~repro.core.uncertain.build_relation` is a cheap
vectorized quantization; the expensive artifacts above are what is
cached) and replays the batch ledger via
:func:`~repro.core.phase1.replay_phase1_charges`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..config import EverestConfig
from ..core.phase1 import (
    _INFER_CHUNK,
    _sample_indices,
    Phase1Result,
    RowChunker,
    replay_phase1_charges,
)
from ..core.uncertain import build_relation
from ..errors import ConfigurationError
from ..models.mdn import GaussianMixture
from ..models.trainer import train_network, train_proxy_grid
from ..oracle.cost import CostModel
from ..video.diff import DifferenceDetector, DiffResult, RetainedSink
from ..video.streaming import Segment, StreamingVideo

#: Inference cache granularity. Must equal the internal prediction
#: batch of :meth:`~repro.models.network.MixtureDensityNetwork.predict`
#: and divide the batch engine's inference chunk, so cached blocks are
#: byte-identical to the sub-batches a batch run computes.
INFER_BLOCK = 512

if _INFER_CHUNK % INFER_BLOCK != 0:  # not assert: survives python -O
    raise RuntimeError(
        "INFER_BLOCK must divide the batch inference chunk "
        f"({INFER_BLOCK} vs {_INFER_CHUNK}): block-cached mixtures "
        "would stop matching batch inference bit for bit")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class StreamingConfig:
    """Knobs of the streaming maintainers (drift auditing off by default).

    With ``audit_fraction == 0`` a streaming session charges exactly
    what the batch engine charges and stays bit-equivalent to it; turn
    auditing on to detect drift at the price of extra ``oracle_label``
    work (and batch divergence once a retrain fires).
    """

    #: Fraction of each append's frames oracle-audited for drift.
    audit_fraction: float = 0.0
    #: Excess of audit NLL over the bootstrap holdout NLL that triggers
    #: a warm retrain; ``None`` disables retraining.
    drift_threshold: Optional[float] = None
    #: Epochs of a warm retrain (default: the Phase-1 ``epochs``).
    retrain_epochs: Optional[int] = None
    #: Rolling window of audited frames the drift statistic averages.
    audit_window: int = 256
    #: Minimum audited frames before drift is reported at all.
    min_audit_for_drift: int = 16
    #: Hard cap on audited frames per append.
    max_audit_per_append: int = 64
    #: Keep only the last N append results / subscription reports
    #: (``None`` = unbounded). Indefinite streams should bound this:
    #: the history (and hence every checkpoint) otherwise grows with
    #: each append. The latest report is always retained.
    max_history: Optional[int] = None

    def __post_init__(self) -> None:
        _require(0.0 <= self.audit_fraction <= 1.0,
                 "audit_fraction must be in [0, 1]")
        _require(self.retrain_epochs is None or self.retrain_epochs >= 1,
                 "retrain_epochs must be None or >= 1")
        _require(self.audit_window >= 1, "audit_window must be >= 1")
        _require(self.min_audit_for_drift >= 1,
                 "min_audit_for_drift must be >= 1")
        _require(self.max_audit_per_append >= 1,
                 "max_audit_per_append must be >= 1")
        _require(self.max_history is None or self.max_history >= 1,
                 "max_history must be None or >= 1")


@dataclass
class StreamingStats:
    """Physical (cache-miss) work counters for one streaming session.

    Reports carry batch-equivalent ledgers; these counters record what
    the session actually *paid* — the delta-sized work streaming exists
    to expose.
    """

    appends: int = 0
    fresh_label_calls: int = 0
    fresh_confirm_calls: int = 0
    fresh_inferred_frames: int = 0
    audited_frames: int = 0
    retrain_count: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "appends": self.appends,
            "fresh_label_calls": self.fresh_label_calls,
            "fresh_confirm_calls": self.fresh_confirm_calls,
            "fresh_inferred_frames": self.fresh_inferred_frames,
            "audited_frames": self.audited_frames,
            "retrain_count": self.retrain_count,
        }

    @property
    def fresh_oracle_calls(self) -> int:
        return self.fresh_label_calls + self.fresh_confirm_calls


class IncrementalDiff:
    """Difference detection maintained under appends.

    Clip boundaries are multiples of ``clip_size`` in global frame
    coordinates, exactly as in
    :class:`~repro.video.diff.DifferenceDetector`; a clip's decisions
    depend only on its own frames, so only clips intersecting the new
    frames — at most one provisional clip plus the arrivals — need
    reprocessing. ``extend`` returns the first frame index whose retain
    decision may have changed.
    """

    def __init__(self, config):
        self.config = config
        self.representative = np.zeros(0, dtype=np.int64)
        self.retained_mask = np.zeros(0, dtype=bool)
        self.processed = 0

    def extend(
        self,
        video: StreamingVideo,
        watermark: int,
        on_retained: Optional[RetainedSink] = None,
    ) -> int:
        c = self.config.clip_size
        if watermark < self.processed:
            raise ConfigurationError("watermark cannot move backwards")
        grow = watermark - self.representative.size
        if grow > 0:
            self.representative = np.concatenate(
                [self.representative, np.zeros(grow, dtype=np.int64)])
            self.retained_mask = np.concatenate(
                [self.retained_mask, np.zeros(grow, dtype=bool)])
        # Reprocess from the start of the clip containing the old
        # watermark: that clip was provisional (its anchor can move).
        start = self.processed - self.processed % c
        DifferenceDetector(self.config).scan(
            video, start, watermark, self.retained_mask,
            self.representative, on_retained)
        self.processed = watermark
        return start

    def result(self) -> DiffResult:
        return DiffResult(
            retained=np.flatnonzero(self.retained_mask[:self.processed]),
            representative=self.representative[:self.processed].copy(),
            num_frames=self.processed,
        )


class BlockInferenceCache:
    """Proxy inference cached per 512-frame block of the retained array.

    A block is recomputed only when its frame-id contents change (new
    arrivals, or retain decisions flipped by a provisional clip); the
    tail partial block is naturally provisional until it fills. Cached
    blocks concatenate to the byte-identical mixture matrix the batch
    engine's chunked inference produces.
    """

    def __init__(self):
        self._blocks: Dict[int, Tuple[bytes, GaussianMixture]] = {}

    def clear(self) -> None:
        self._blocks.clear()

    def block(
        self,
        b: int,
        ids: np.ndarray,
        proxy,
        pixels_of: Callable[[np.ndarray], np.ndarray],
        stats: Optional[StreamingStats] = None,
    ) -> GaussianMixture:
        """Mixtures of block ``b`` holding frames ``ids``.

        A hit when the slot's frame-id contents match; otherwise
        inferred from ``pixels_of(ids)`` — ``video.batch_pixels``, or
        the pixels themselves when a pass already has them in hand —
        and cached.
        """
        key = ids.tobytes()
        cached = self._blocks.get(b)
        if cached is not None and cached[0] == key:
            return cached[1]
        mixture = proxy.predict_mixtures(pixels_of(ids))
        self._blocks[b] = (key, mixture)
        if stats is not None:
            stats.fresh_inferred_frames += int(ids.size)
        return mixture

    def mixtures_for(
        self,
        proxy,
        video: StreamingVideo,
        retained: np.ndarray,
        stats: Optional[StreamingStats] = None,
    ) -> GaussianMixture:
        retained = np.asarray(retained, dtype=np.int64)
        num_blocks = -(-retained.size // INFER_BLOCK)
        parts: List[GaussianMixture] = []
        for b in range(num_blocks):
            ids = retained[b * INFER_BLOCK:(b + 1) * INFER_BLOCK]
            # Use the locally validated mixture, never a re-read: a
            # sibling session sharing this cache at a different
            # watermark may have replaced the slot in the meantime.
            parts.append(
                self.block(b, ids, proxy, video.batch_pixels, stats))
        for b in [b for b in self._blocks if b >= num_blocks]:
            # pop, not del: a service-shared cache may see a sibling
            # session trim the same stale block concurrently.
            self._blocks.pop(b, None)
        return GaussianMixture.concatenate(parts)


class DriftTracker:
    """Rolling proxy-vs-oracle calibration error on audited frames.

    The statistic is the mean per-frame negative log-likelihood of
    recently audited oracle scores under the proxy, minus the
    bootstrap holdout NLL (the calibration level the model was
    selected at). Positive drift means the proxy has gone stale.
    """

    def __init__(self, reference_nll: float, *, window: int,
                 min_samples: int):
        self.reference_nll = float(reference_nll)
        self.min_samples = int(min_samples)
        self.recent: Deque[float] = deque(maxlen=int(window))
        #: Recent audited (frame -> oracle score), fuel for warm
        #: retrains. Bounded (insertion order, oldest evicted) so
        #: indefinite streams don't grow state and retrain cost with
        #: every audited append.
        self.audited: Dict[int, float] = {}
        self.max_audited = 4 * int(window)

    def observe(
        self, frames: np.ndarray, scores: np.ndarray, nlls: np.ndarray
    ) -> None:
        for frame, score in zip(frames, scores):
            self.audited.pop(int(frame), None)
            self.audited[int(frame)] = float(score)
        while len(self.audited) > self.max_audited:
            self.audited.pop(next(iter(self.audited)))
        self.recent.extend(float(v) for v in nlls)

    @property
    def drift(self) -> Optional[float]:
        if len(self.recent) < self.min_samples:
            return None
        return float(np.mean(self.recent)) - self.reference_nll

    def exceeds(self, threshold: Optional[float]) -> bool:
        drift = self.drift
        return threshold is not None and drift is not None \
            and drift > threshold

    def rebase(self, reference_nll: float) -> None:
        """Reset after a retrain: new reference, forget old residuals."""
        self.reference_nll = float(reference_nll)
        self.recent.clear()


@dataclass
class AppendOutcome:
    """What one watermark advance changed in the Phase-1 state."""

    #: First frame whose diff decision may have changed.
    invalidated_from: int
    #: Drift statistic after auditing this append (None if unknown).
    drift: Optional[float]
    #: Whether this append triggered a warm retrain.
    retrained: bool
    #: Frames oracle-audited during this append.
    audited: int


class IncrementalPhase1:
    """Maintains batch-equivalent Phase-1 artifacts under appends.

    ``bootstrap()`` mirrors :func:`~repro.core.phase1.run_phase1` step
    by step over the initial segment (the sampling, training and
    charging arithmetic is kept in lockstep with that function);
    ``advance()`` folds one append in. Both return a fresh
    :class:`~repro.api.session.Phase1Entry` whose ledger replays the
    charges a from-scratch batch run over the current prefix would
    make.
    """

    def __init__(
        self,
        video: StreamingVideo,
        scoring,
        config: EverestConfig,
        unit_costs: Dict[str, float],
        label_oracle,
        streaming: StreamingConfig,
        stats: StreamingStats,
    ):
        self.video = video
        self.scoring = scoring
        self.config = config
        self.unit_costs = dict(unit_costs)
        self.label_oracle = label_oracle
        self.streaming = streaming
        self.stats = stats

        self.diff = IncrementalDiff(config.diff)
        self.blocks = BlockInferenceCache()
        self.known_scores: Dict[int, float] = {}
        #: Audit/retrain work beyond the batch replay, aggregated per
        #: ledger key (a per-event list would grow with stream age).
        self.extra_charges: Dict[str, float] = {}
        self.retrained_segments: List[int] = []
        #: True once auditing/retraining charged work a batch run would
        #: not have — reports remain valid but stop being bit-equal.
        self.diverged = False
        self.grid_result = None
        self.proxy = None
        self.drift_tracker: Optional[DriftTracker] = None
        self.train_idx = np.zeros(0, dtype=np.int64)
        self.holdout_idx = np.zeros(0, dtype=np.int64)
        self._train_scores = np.zeros(0)
        self._holdout_scores = np.zeros(0)
        self.sample_epochs = 0

    # ------------------------------------------------------------------
    def adopt_inference_cache(self, shared: "BlockInferenceCache") -> None:
        """Share proxy-inference blocks with sibling sessions.

        The service layer keys shared caches by the full artifact
        (video content, UDF, *and* phase1 configuration), under which
        bootstrap proxies are bit-identical — so cached mixtures are
        interchangeable. A session that has warm-retrained holds a
        different proxy and must keep its private cache (see
        :meth:`_warm_retrain`), so adoption is refused after retrain.
        """
        if shared is self.blocks or self.diverged:
            return
        shared._blocks.update(self.blocks._blocks)
        self.blocks = shared

    # ------------------------------------------------------------------
    def bootstrap(self):
        """Phase 1 over the initial segment (run_phase1, incrementally).

        Each numbered step mirrors the same step of
        :func:`~repro.core.phase1.run_phase1`; the replayed ledger in
        :meth:`rebuild_entry` re-issues their charges.
        """
        video, config = self.video, self.config
        phase1 = config.phase1
        num_frames = len(video)
        rng = np.random.default_rng(config.seed)
        pool = phase1.sample_pool(num_frames)
        train_size = phase1.train_sample_size(pool)
        holdout_size = phase1.holdout_sample_size(pool)
        train_idx, holdout_idx = _sample_indices(
            rng, pool, train_size, holdout_size)

        # 1. Oracle-label the samples (fresh calls; cached thereafter).
        train_scores = self.label_oracle.score(video, train_idx)
        holdout_scores = self.label_oracle.score(video, holdout_idx)
        for idx, score in zip(train_idx, train_scores):
            self.known_scores[int(idx)] = float(score)
        for idx, score in zip(holdout_idx, holdout_scores):
            self.known_scores[int(idx)] = float(score)
        self.train_idx, self.holdout_idx = train_idx, holdout_idx
        self._train_scores = np.asarray(train_scores, dtype=np.float64)
        self._holdout_scores = np.asarray(holdout_scores, dtype=np.float64)

        # 2. Train the (g, h) grid; select by holdout NLL.
        self.grid_result = train_proxy_grid(
            video.batch_pixels(train_idx),
            train_scores,
            video.batch_pixels(holdout_idx),
            holdout_scores,
            config=phase1,
            input_hw=video.resolution,
            seed=config.seed,
        )
        self.proxy = self.grid_result.proxy
        self.sample_epochs = self.grid_result.sample_epochs
        self.drift_tracker = DriftTracker(
            self.grid_result.best_history.holdout_nll,
            window=self.streaming.audit_window,
            min_samples=self.streaming.min_audit_for_drift,
        )

        # 3 + 4. One pass, as in run_phase1: the detector renders each
        # block of clips once and the retained rows go, pixels in hand,
        # to the block cache INFER_BLOCK rows at a time (a block a
        # sibling session already cached is a hit and is not
        # re-inferred). 5 runs inside rebuild_entry, on cache hits.
        blocks = RowChunker(
            INFER_BLOCK,
            lambda b, ids, pixels: self.blocks.block(
                b, ids, self.proxy, lambda _: pixels, self.stats))
        self.diff.extend(video, num_frames, on_retained=blocks.push)
        blocks.close()
        return self.rebuild_entry()

    # ------------------------------------------------------------------
    def advance(self, segment: Segment):
        """Fold one append into the Phase-1 state; returns the entry."""
        audited = self._audit(segment)
        # Capture the statistic before a retrain rebases the tracker,
        # so the outcome reports the drift that triggered it.
        drift = self.drift_tracker.drift if self.drift_tracker else None
        retrained = False
        if self.drift_tracker is not None and \
                self.drift_tracker.exceeds(self.streaming.drift_threshold):
            self._warm_retrain(segment)
            retrained = True
        invalidated_from = self.diff.extend(self.video, len(self.video))
        entry = self.rebuild_entry()
        return entry, AppendOutcome(
            invalidated_from=invalidated_from,
            drift=drift,
            retrained=retrained,
            audited=audited,
        )

    # ------------------------------------------------------------------
    def rebuild_entry(self):
        """Assemble a batch-equivalent Phase1Entry for the prefix."""
        from ..api.session import Phase1Entry

        phase1 = self.config.phase1
        diff_result = self.diff.result()
        retained = diff_result.retained
        mixtures = self.blocks.mixtures_for(
            self.proxy, self.video, retained, self.stats)
        step = phase1.quantization_step
        if step is None:
            step = self.scoring.step
        relation = build_relation(
            retained,
            mixtures,
            floor=self.scoring.score_floor,
            step=step,
            known_scores=self.known_scores,
            truncate_sigmas=phase1.truncate_sigmas,
        )
        cost_model = CostModel(self.unit_costs)
        replay_phase1_charges(
            cost_model,
            train_labels=int(self.train_idx.size),
            holdout_labels=int(self.holdout_idx.size),
            sample_epochs=self.sample_epochs,
            num_frames=len(self.video),
            num_retained=int(retained.size),
        )
        for key in sorted(self.extra_charges):
            cost_model.charge(key, self.extra_charges[key])
        result = Phase1Result(
            relation=relation,
            proxy=self.proxy,
            grid_result=self.grid_result,
            diff_result=diff_result,
            known_scores=self.known_scores,
            mixtures=mixtures,
        )
        return Phase1Entry(
            result=result,
            oracle_calls=int(self.train_idx.size + self.holdout_idx.size),
            cost_model=cost_model,
        )

    # ------------------------------------------------------------------
    def _charge_extra(self, key: str, units: float) -> None:
        self.extra_charges[key] = \
            self.extra_charges.get(key, 0.0) + float(units)

    def _audit(self, segment: Segment) -> int:
        """Oracle-label a small sample of the append; track drift."""
        sc = self.streaming
        if sc.audit_fraction <= 0.0:
            return 0
        count = min(
            sc.max_audit_per_append,
            int(np.ceil(sc.audit_fraction * segment.num_frames)),
            segment.num_frames,
        )
        if count < 1:
            return 0
        rng = np.random.default_rng(
            (self.config.seed, 0xA0D17, segment.index))
        frames = segment.start + rng.choice(
            segment.num_frames, size=count, replace=False)
        scores = self.label_oracle.score(self.video, frames)
        # Honest accounting: auditing is extra Phase-1 work a batch run
        # does not pay — labelling, decoding, and the proxy inference
        # that produces the NLLs — charged on top of the replay and
        # recorded as divergence from the batch reference.
        self._charge_extra("oracle_label", count)
        self._charge_extra("decode", count)
        self._charge_extra("cmdn_infer", count)
        self.diverged = True
        nlls = -self.proxy.predict_mixtures(
            self.video.batch_pixels(frames)).log_likelihood(scores)
        self.stats.fresh_inferred_frames += count
        assert self.drift_tracker is not None
        self.drift_tracker.observe(frames, scores, nlls)
        self.stats.audited_frames += count
        return count

    def _warm_retrain(self, segment: Segment) -> None:
        """Continue training the current proxy on bootstrap + audits."""
        phase1 = self.config.phase1
        epochs = self.streaming.retrain_epochs or phase1.epochs
        tracker = self.drift_tracker
        assert tracker is not None
        audit_frames = np.asarray(sorted(tracker.audited), dtype=np.int64)
        frames = np.concatenate([self.train_idx, audit_frames])
        scores = np.concatenate([
            self._train_scores,
            np.asarray([tracker.audited[int(f)] for f in audit_frames]),
        ])
        train_network(
            self.proxy,
            self.video.batch_pixels(frames),
            scores,
            epochs=epochs,
            batch_size=phase1.batch_size,
            learning_rate=phase1.learning_rate,
            seed=self.config.seed + 0x9E7 + segment.index,
        )
        self._charge_extra("cmdn_train", frames.size * epochs)
        # Stale mixtures: the proxy changed, re-infer everything. A
        # *fresh private* cache, not clear(): when the cache is shared
        # at service scope, sibling sessions still hold the original
        # proxy and their cached mixtures stay valid — this session's
        # retrained proxy must never repopulate a shared cache.
        self.blocks = BlockInferenceCache()
        tracker.rebase(self.proxy.holdout_nll(
            self.video.batch_pixels(self.holdout_idx),
            self._holdout_scores,
        ))
        self.retrained_segments.append(segment.index)
        self.stats.retrain_count += 1
        self.diverged = True

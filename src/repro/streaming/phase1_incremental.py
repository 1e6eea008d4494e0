"""Streaming-side Phase-1 maintenance: drift auditing (DESIGN.md §7).

A batch run pays Phase 1 — labelling, CMDN grid training, difference
detection, proxy inference — once per video. Under appends the naive
approach re-pays all of it per arrival.
:class:`~repro.core.phase1.Phase1Maintainer` keeps the Phase-1
artifacts *incrementally* while keeping them **bit-identical** to a
from-scratch batch run over the current prefix (under the pinned
``sample_prefix`` training policy), so the live engine inherits the
batch engine's guarantees verbatim. This module adds what only a
growing video needs:

* :class:`IncrementalPhase1` folds one append into the maintainer
  (``advance``) and shares inference blocks with sibling sessions;
* :class:`DriftTracker` audits a small oracle-labelled sample of each
  append and compares the proxy's NLL on it against the bootstrap
  holdout reference; sustained excess triggers a *warm retrain*
  (continue training the current weights on bootstrap + audited
  labels). Auditing and retraining charge the ledger honestly and mark
  the session as diverged from the batch reference.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

import numpy as np

from ..core.phase1 import BlockInferenceCache, Phase1Maintainer
from ..errors import ConfigurationError
from ..models.trainer import LEARNING_RATE, TRAIN_BATCH_SIZE, train_network
from ..video.streaming import Segment, is_sliding


#: Guards :meth:`StreamingStats.count_fresh_confirms`. Module-level:
#: the stats object is pickled into checkpoints and a lock is not.
_STATS_LOCK = threading.Lock()

#: Rolling window of audited frames the drift statistic averages.
AUDIT_WINDOW = 256
#: Hard cap on audited frames per append.
MAX_AUDIT_PER_APPEND = 64


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
    #: Minimum audited frames before drift is reported at all.
    min_audit_for_drift: int = 16
    #: Keep only the last N append results / subscription reports
    #: (``None`` = unbounded). Indefinite streams should bound this:
    #: the history (and hence every checkpoint) otherwise grows with
    #: each append. The latest report is always retained.
    max_history: Optional[int] = None

    def __post_init__(self) -> None:
        _require(0.0 <= self.audit_fraction <= 1.0,
                 "audit_fraction must be in [0, 1]")
        _require(self.min_audit_for_drift >= 1,
                 "min_audit_for_drift must be >= 1")
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

    def count_fresh_confirms(self, calls: int) -> None:
        """Add one execution's cache-miss confirmations, atomically:
        any scheduler thread may run a plan on the session mid-event."""
        with _STATS_LOCK:
            self.fresh_confirm_calls += calls


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


class IncrementalPhase1(Phase1Maintainer):
    """The Phase-1 maintainer under appends, with drift auditing.

    ``bootstrap()`` is the batch build over the initial segment;
    ``advance()`` folds one append in. Both return a fresh
    :class:`~repro.core.phase1.Phase1Entry` whose ledger replays the
    charges a from-scratch batch run over the current prefix would
    make (plus, once auditing is on, the audit/retrain work a batch
    run never does).
    """

    def __init__(
        self,
        video,
        label_oracle,
        config,
        unit_costs: Dict[str, float],
        streaming: StreamingConfig,
        stats: StreamingStats,
    ):
        super().__init__(video, label_oracle, config, unit_costs, stats)
        self.streaming = streaming
        self.retrained_segments: List[int] = []
        #: True once auditing/retraining charged work a batch run would
        #: not have — reports remain valid but stop being bit-equal.
        self.diverged = False
        self.drift_tracker: Optional[DriftTracker] = None

    # ------------------------------------------------------------------
    def adopt_inference_cache(self, shared: BlockInferenceCache) -> None:
        """Share proxy-inference blocks with sibling sessions.

        The service layer keys shared caches by the full artifact
        (video content, UDF, *and* phase1 configuration), under which
        bootstrap proxies are bit-identical — so cached mixtures are
        interchangeable. Refused by a session that has warm-retrained
        (it holds a different proxy and keeps its private cache, see
        :meth:`_warm_retrain`) and by a sliding-window session (its
        evictions must stay invisible to full-prefix siblings).
        """
        if shared is self.blocks or self.diverged \
                or is_sliding(self.video):
            return
        shared.merge(self.blocks)
        self.blocks = shared

    # ------------------------------------------------------------------
    def bootstrap(self, cost_model=None):
        entry = super().bootstrap(cost_model)
        self.drift_tracker = DriftTracker(
            self.grid_result.best_history.holdout_nll,
            window=AUDIT_WINDOW,
            min_samples=self.streaming.min_audit_for_drift,
        )
        return entry

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
        invalidated_from = self.scan_arrivals()
        entry = self.rebuild_entry()
        return entry, AppendOutcome(
            invalidated_from=invalidated_from,
            drift=drift,
            retrained=retrained,
            audited=audited,
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
            MAX_AUDIT_PER_APPEND,
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
        """Continue training the current proxy on bootstrap + audits
        for the Phase-1 ``epochs``."""
        epochs = self.config.phase1.epochs
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
            batch_size=TRAIN_BATCH_SIZE,
            learning_rate=LEARNING_RATE,
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

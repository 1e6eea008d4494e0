"""Window-aware incremental Phase-1 maintenance (DESIGN.md §13).

The streaming maintainer (§7) keeps full-prefix Phase-1 artifacts
batch-equivalent under appends. The windowed maintainer adds the
*expiry* side: when the window slides past frames, their inference
blocks are retracted from the cache and the uncertain relation is
rebuilt over window rows only — while the quantization grid, the
difference-detector state and the replayed ledger all remain those of
the **full prefix**, because the batch reference for a windowed answer
is a from-scratch run over the whole prefix restricted to the window
(:func:`~repro.core.uncertain.restrict_relation`).

Reproducing the full-prefix grid without the full mixture matrix is
the trick: :class:`WindowedBlockCache` remembers one float per block —
``max(mu + truncate_sigmas * sigma)`` over the block's rows, keyed by
the block's frame-id bytes — so the global grid top (an exact max of
maxes) survives block eviction. If an *expired* block's contents later
change (a provisional clip straddling the window edge flips a retain
decision), its top is healed by one O(block) re-inference; that is the
only case where expiry costs inference, and it is delta-sized.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.phase1 import Phase1Result, replay_phase1_charges
from ..core.uncertain import QuantizationGrid, build_relation
from ..models.mdn import GaussianMixture
from ..oracle.cost import CostModel
from ..streaming.phase1_incremental import (
    INFER_BLOCK,
    BlockInferenceCache,
    IncrementalPhase1,
    StreamingStats,
)
from .view import WindowedVideo

__all__ = ["WindowedBlockCache", "WindowedIncrementalPhase1"]


class WindowedBlockCache(BlockInferenceCache):
    """A block cache that evicts expired blocks but keeps their tops.

    Blocks below the window hold no mixtures (that is the retraction —
    memory and recompute proportional to the live window, not the
    prefix); their grid tops persist, keyed by content, so the
    full-prefix quantization grid is still reproduced exactly.
    """

    def __init__(self):
        super().__init__()
        #: block index -> (frame-id bytes, max(mu + k*sigma) over rows).
        self._tops: Dict[int, Tuple[bytes, float]] = {}

    def clear(self) -> None:  # pragma: no cover - parity with base
        super().clear()
        self._tops.clear()

    @property
    def cached_blocks(self) -> List[int]:
        """Block indices currently holding mixtures (tests/debugging)."""
        return sorted(self._blocks)

    def window_state(
        self,
        proxy,
        video,
        retained: np.ndarray,
        cut: int,
        *,
        truncate_sigmas: float,
        stats: Optional[StreamingStats] = None,
    ) -> Tuple[GaussianMixture, Optional[float]]:
        """Mixtures for ``retained[cut:]`` plus the full-prefix grid top.

        ``cut`` is the number of leading retained rows outside the
        window. Returns ``(mixtures, top)`` where ``top`` equals
        ``float(np.max(mu + truncate_sigmas * sigma))`` over *all*
        retained rows — bitwise what :func:`~repro.core.uncertain.grid_for`
        computes from the full mixture matrix — or ``None`` when
        nothing is retained.
        """
        retained = np.asarray(retained, dtype=np.int64)
        if retained.size == 0:  # pragma: no cover - empty video guard
            return GaussianMixture.concatenate([]), None
        num_blocks = -(-retained.size // INFER_BLOCK)
        first_block = cut // INFER_BLOCK
        parts: List[GaussianMixture] = []
        top: Optional[float] = None
        for b in range(num_blocks):
            ids = retained[b * INFER_BLOCK:(b + 1) * INFER_BLOCK]
            key = ids.tobytes()
            mixture: Optional[GaussianMixture] = None
            if b >= first_block:
                mixture = self.block(b, ids, proxy, video.batch_pixels, stats)
                parts.append(mixture)
            cached_top = self._tops.get(b)
            if cached_top is not None and cached_top[0] == key:
                block_top = cached_top[1]
            else:
                if mixture is None:
                    # An expired block without a top: primed by the
                    # bootstrap pass (a hit), or its contents changed
                    # or were never seen (one O(block) re-inference
                    # heals the top). Either way the mixture is
                    # retracted again below.
                    mixture = self.block(
                        b, ids, proxy, video.batch_pixels, stats)
                block_top = float(
                    np.max(mixture.mu + truncate_sigmas * mixture.sigma))
                self._tops[b] = (key, block_top)
            top = block_top if top is None else max(top, block_top)
        # Retraction: expired blocks drop their mixtures, stale trailing
        # blocks (shrunk retained array) drop everything.
        for b in [b for b in self._blocks
                  if b < first_block or b >= num_blocks]:
            self._blocks.pop(b, None)
        for b in [b for b in self._tops if b >= num_blocks]:
            self._tops.pop(b, None)
        offset = cut - first_block * INFER_BLOCK
        window = GaussianMixture.concatenate(parts).select(
            slice(offset, None))
        return window, top


class WindowedIncrementalPhase1(IncrementalPhase1):
    """The §7 maintainer with expiry-side retraction.

    Differences from the base class, all in service of keeping the
    windowed answer byte-identical to ``restrict_relation`` over a
    batch run:

    * the relation is built over window rows only, on the *full-prefix*
      grid reproduced from cached block tops;
    * known scores outside the window leave the relation but still
      participate in the grid (exactly as they do in the batch grid);
    * the replayed ledger is untouched — it charges for the full
      prefix, because that is what the batch reference pays;
    * the block cache is always private (`adopt_inference_cache` is a
      no-op): a service-shared cache must never have blocks evicted
      under sibling full-prefix sessions.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not isinstance(self.video, WindowedVideo):
            raise TypeError(
                "WindowedIncrementalPhase1 requires a WindowedVideo")
        self.blocks = WindowedBlockCache()

    def adopt_inference_cache(self, shared) -> None:
        """Refused: window eviction must stay invisible to siblings."""
        return

    def _warm_retrain(self, segment) -> None:
        super()._warm_retrain(segment)
        # The base class installed a plain private cache; windowed
        # maintenance needs the top-tracking variant.
        self.blocks = WindowedBlockCache()

    def rebuild_entry(self):
        """A Phase1Entry whose relation covers the open window only."""
        from ..api.session import Phase1Entry

        phase1 = self.config.phase1
        diff_result = self.diff.result()
        retained = diff_result.retained
        lo = self.video.window_lo
        cut = int(np.searchsorted(retained, lo, side="left"))
        mixtures, tops_max = self.blocks.window_state(
            self.proxy,
            self.video,
            retained,
            cut,
            truncate_sigmas=phase1.truncate_sigmas,
            stats=self.stats,
        )
        step = phase1.quantization_step
        if step is None:
            step = self.scoring.step
        floor = self.scoring.score_floor
        # Reproduce grid_for over the full prefix, term for term: the
        # two-level minimum, the mixture upper envelope (max of block
        # maxes is the max), then every known score — expired or not.
        top = floor + step
        if tops_max is not None:
            top = max(top, tops_max)
        if self.known_scores:
            top = max(top, float(np.max(list(self.known_scores.values()))))
        grid = QuantizationGrid(
            floor=floor,
            step=step,
            num_levels=int(np.ceil((top - floor) / step)) + 1,
        )
        known_window = {
            f: s for f, s in self.known_scores.items() if f >= lo}
        relation = build_relation(
            retained[cut:],
            mixtures,
            floor=floor,
            step=step,
            known_scores=known_window,
            truncate_sigmas=phase1.truncate_sigmas,
            grid=grid,
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

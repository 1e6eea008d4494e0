"""Phase 1: build and maintain the uncertain relation D0 (paper Section 3.2).

Steps, each charged to the cost ledger under its Table 8 column:

1. sample ``min(0.5% n, 30000)`` training frames plus a holdout set and
   label them with the oracle (``oracle_label``);
2. train the CMDN hyperparameter grid and keep the smallest-holdout-NLL
   model (``cmdn_train``);
3. run the difference detector to discard near-duplicate frames
   (``diff_detect`` + ``decode``);
4. run the chosen proxy over the retained frames to get per-frame score
   distributions (``cmdn_infer``) and quantize them into x-tuples;
5. insert the already-labelled frames as certain tuples (no oracle work
   is wasted).

One structure does this for every kind of session (DESIGN.md §3, §7,
§13): :class:`Phase1Maintainer` keeps the difference-detector state
(:class:`IncrementalDiff`), the proxy's mixtures per 512-row block of
the retained array (:class:`BlockInferenceCache`) and the labelled
scores, and :meth:`Phase1Maintainer.rebuild_entry` assembles D0 from
them. A batch video is the degenerate update sequence — bootstrap,
never append — which is all :func:`run_phase1` is; a stream appends,
and a sliding window additionally moves the edge below which rows
leave the relation.

Steps 3 and 4 are one pass over the frames that arrived — all of them
at bootstrap, an append's afterwards: the detector renders each block
of clips once and hands the retained rows, pixels in hand, to proxy
inference, regrouped into the cache's fixed blocks (see
:class:`RowChunker`, :meth:`Phase1Maintainer.scan_arrivals`). A
bootstrap's pass takes the labelled sample's pixels and feature rows
from step 2, so a build renders and featurizes every frame once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..config import DiffDetectorConfig, EverestConfig
from ..errors import ConfigurationError
from ..models.cmdn import ProxyScorer
from ..models.mdn import GaussianMixture
from ..models.trainer import GridResult, proxy_family, train_proxy_grid
from ..oracle.base import Oracle, ScoringFunction
from ..oracle.cost import CostModel
from ..trace import span as trace_span
from ..video.diff import DifferenceDetector, DiffResult, RetainedSink
from ..video.streaming import is_sliding
from ..video.synthetic import SyntheticVideo
from .uncertain import (
    QuantizationGrid,
    UncertainRelation,
    _read_only,
    build_relation,
    grid_covering,
    mixture_envelope,
    quantize_mixtures,
)
from .windows import build_window_relation

#: Inference granularity: the retained array is scored (and cached) in
#: blocks of this many rows. BLAS matmul accumulation differs across
#: batch shapes, so mixtures are only bit-reproducible at fixed batch
#: boundaries; 512 equals the internal prediction batch of
#: :meth:`~repro.models.network.MixtureDensityNetwork.predict`, so a
#: block is byte-identical to the sub-batch any larger aligned batch
#: would compute.
INFER_BLOCK = 512

#: Chunk size of the two-pass reference (a multiple of INFER_BLOCK).
_INFER_CHUNK = 2_048


class RowChunker:
    """Regroups rows that arrive in arbitrary batches into fixed chunks.

    ``push(ids, pixels)`` accepts any number of rows; ``consume(number,
    ids, pixels)`` is called with the rows of one chunk at a time (the
    last call, from :meth:`close`, with what is left). The producer's
    first row is row ``first_row`` of the chunked array: chunks are
    numbered, and end, where the array's own do, so the first one
    carries only the rows from ``first_row`` on.
    Proxy inference is only bit-reproducible at fixed batch boundaries
    (see :data:`INFER_BLOCK`), so whoever feeds inference from a
    producer with its own block size goes through here. At most one
    chunk of rows is ever pending; every chunk is handed over in a
    fresh buffer the consumer may keep.
    """

    def __init__(
        self,
        chunk: int,
        consume: Callable[[int, np.ndarray, np.ndarray], None],
        first_row: int = 0,
    ):
        self._chunk = chunk
        self._consume = consume
        self._ids: Optional[np.ndarray] = None
        self._pixels: Optional[np.ndarray] = None
        #: Rows ``[_start, _fill)`` of the pending chunk are buffered.
        self._start = self._fill = first_row % chunk
        self._number = first_row // chunk

    def push(self, ids: np.ndarray, pixels: np.ndarray) -> None:
        taken = 0
        while taken < len(ids):
            if self._pixels is None:
                self._ids = np.empty(self._chunk, dtype=np.int64)
                self._pixels = np.empty(
                    (self._chunk,) + pixels.shape[1:], dtype=pixels.dtype)
            take = min(len(ids) - taken, self._chunk - self._fill)
            rows = slice(self._fill, self._fill + take)
            self._ids[rows] = ids[taken:taken + take]
            self._pixels[rows] = pixels[taken:taken + take]
            self._fill += take
            taken += take
            if self._fill == self._chunk:
                self.close()

    def close(self) -> None:
        """Hand over the pending rows, if any, as a (short) chunk."""
        if self._fill > self._start:
            rows = slice(self._start, self._fill)
            ids, pixels = self._ids[rows], self._pixels[rows]
            self._ids = self._pixels = None
            self._start = self._fill = 0
            self._number += 1
            self._consume(self._number - 1, ids, pixels)


def predict_mixtures_chunked(
    proxy: ProxyScorer,
    video: SyntheticVideo,
    retained: np.ndarray,
    *,
    chunk: int = _INFER_CHUNK,
) -> GaussianMixture:
    """Proxy inference over ``retained`` frames as its own pass.

    The two-pass *reference* for step 4: each chunk of frame ids is
    rendered, then scored. Tests pin the maintainer's single-pass,
    block-cached mixtures to it bit for bit.
    """
    return GaussianMixture.concatenate([
        proxy.predict_mixtures(
            video.batch_pixels(retained[start:start + chunk]))
        for start in range(0, retained.size, chunk)
    ])


def replay_phase1_charges(
    cost_model,
    *,
    train_labels: int,
    holdout_labels: int,
    sample_epochs: int,
    num_frames: int,
    num_retained: int,
) -> None:
    """Write the Phase-1 charge sequence — the one place it is spelled.

    Every Phase-1 ledger, first build or post-append rebuild, is this
    sequence over the current prefix (a maintained stream reports
    batch-equivalent ledgers: after each event it replays what a
    from-scratch run would charge). The order matters —
    :class:`~repro.oracle.cost.CostModel` accumulates ``seconds``
    additively, so only the same sequence of ``charge`` calls
    reproduces the same floats bit for bit.
    """
    # Step 1: the train batch, then the holdout batch, then the decode
    # of both.
    cost_model.charge("oracle_label", train_labels)
    cost_model.charge("oracle_label", holdout_labels)
    cost_model.charge("decode", train_labels + holdout_labels)
    # Step 2: grid training.
    cost_model.charge("cmdn_train", sample_epochs)
    # Step 3: difference detection over the whole prefix.
    cost_model.charge("diff_detect", num_frames)
    cost_model.charge("decode", num_frames)
    # Step 4: proxy inference over the retained frames.
    cost_model.charge("cmdn_infer", num_retained)


@dataclass(frozen=True)
class Phase1Entry:
    """D0 and everything it was built from: one read-only value.

    What Phase 2 and the experiments need from Phase 1 plus its cost
    ledger. Nothing derivable is stored: :attr:`proxy` reads the grid's
    winner and :attr:`oracle_calls` counts the labelled frames. Every
    array the entry holds is read-only from construction; ``known_scores``
    is a plain dict (a mappingproxy does not pickle) that nobody writes.
    """

    relation: UncertainRelation
    grid_result: GridResult
    diff_result: DiffResult
    #: Exact scores observed while labelling samples (frame -> score).
    known_scores: Dict[int, float]
    #: Mixtures for each retained frame inside the relation (all of
    #: ``diff_result.retained``, or its open-window tail).
    mixtures: GaussianMixture
    cost_model: CostModel

    def __post_init__(self):
        mixtures, diff = self.mixtures, self.diff_result
        _read_only((mixtures.pi, mixtures.mu, mixtures.sigma,
                    diff.retained, diff.representative))

    @property
    def proxy(self) -> ProxyScorer:
        return self.grid_result.proxy

    @property
    def oracle_calls(self) -> int:
        """Oracle labels Phase 1 bought: one per known score."""
        return len(self.known_scores)

    def window_relation(
        self, *, window_size: int, floor: float, step: float,
    ) -> UncertainRelation:
        """The pristine window-level relation of one window shape.

        A pure function of this entry, so it is built on first use and
        kept: every query reads it in place, exactly as frame queries
        read :attr:`relation`. Two threads racing the first use build
        equal relations and one is kept. Derived state: never pickled.
        """
        memo = self.__dict__.setdefault("_window_relations", {})
        key = (window_size, step, floor)
        relation = memo.get(key)
        if relation is None:
            relation = memo[key] = build_window_relation(
                self.mixtures,
                self.diff_result.retained,
                self.diff_result,
                window_size=window_size,
                floor=floor,
                step=step,
            )
        return relation

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_window_relations", None)
        return state


def _sample_indices(
    rng: np.random.Generator, num_frames: int, train: int, holdout: int
):
    total = min(train + holdout, num_frames)
    chosen = rng.choice(num_frames, size=total, replace=False)
    return chosen[:train], chosen[train:]


class IncrementalDiff:
    """Difference detection maintained under appends.

    Clip boundaries are multiples of ``clip_size`` in global frame
    coordinates, exactly as in
    :class:`~repro.video.diff.DifferenceDetector`; a clip's decisions
    depend only on its own frames, so only clips intersecting the new
    frames — at most one provisional clip plus the arrivals — need
    reprocessing (the provisional clip's anchor frame moves as it
    grows, which can flip retain decisions). ``extend`` returns the
    first frame index whose retain decision may have changed.

    The provisional clip's float32 pixels, as the last scan rendered
    them (at most ``clip_size - 1`` frames), are kept and served to the
    next scan by frame id (:func:`_rows_by_id`), so an append renders
    exactly its arrivals. Derived rows: left out of pickles, so a
    resumed session renders the clip once more.
    """

    #: (frame ids, float32 pixels) of the provisional clip; never
    #: pickled (a restored instance reads this class default).
    clip: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __init__(self, config: DiffDetectorConfig):
        self.config = config
        self.representative = np.zeros(0, dtype=np.int64)
        self.retained_mask = np.zeros(0, dtype=bool)
        self.processed = 0

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("clip", None)
        return state

    @property
    def provisional_from(self) -> int:
        """Start of the clip holding the watermark — provisional (its
        anchor can move), so the next :meth:`extend` re-decides it.
        Retain decisions below this frame are final."""
        return self.processed - self.processed % self.config.clip_size

    def extend(
        self,
        video: SyntheticVideo,
        watermark: int,
        on_retained: Optional[RetainedSink] = None,
        render: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> int:
        if watermark < self.processed:
            raise ConfigurationError("watermark cannot move backwards")
        grow = watermark - self.representative.size
        if grow > 0:
            self.representative = np.concatenate(
                [self.representative, np.zeros(grow, dtype=np.int64)])
            self.retained_mask = np.concatenate(
                [self.retained_mask, np.zeros(grow, dtype=bool)])
        start = self.provisional_from
        held, render = self.clip, render or video.batch_pixels
        clip_from = watermark - watermark % self.config.clip_size
        self.clip = None

        def render_held(ids: np.ndarray) -> np.ndarray:
            # Blocks are whole clips, so the last one holds the new
            # provisional clip entire.
            pixels = _rows_by_id(ids, held, render)[0]
            clip = ids >= clip_from
            if clip.any():
                self.clip = (ids[clip], pixels[clip])
            return pixels

        DifferenceDetector(self.config).scan(
            video, start, watermark, self.retained_mask,
            self.representative, on_retained, render_held)
        self.processed = watermark
        return start

    def result(self) -> DiffResult:
        return DiffResult(
            retained=np.flatnonzero(self.retained_mask[:self.processed]),
            representative=self.representative[:self.processed].copy(),
            num_frames=self.processed,
        )


def _rows_by_id(
    ids: np.ndarray,
    held: Optional[Tuple[np.ndarray, np.ndarray]],
    compute: Callable[[np.ndarray], np.ndarray],
) -> Tuple[np.ndarray, int]:
    """One row per frame of ``ids``, reusing the rows already in hand.

    ``held = (frame ids, their rows)`` (ids ascending) supplies the
    rows whose frame id matches; ``compute(missing ids)`` the rest.
    Matching is by frame id, so rows held for other frames — a retain
    decision a provisional clip flipped since — are a miss, never a
    wrong row. Returns the rows and how many of them were in hand.
    """
    if held is None or not held[0].size:
        return compute(ids), 0
    held_ids, held_rows = held
    at = np.minimum(np.searchsorted(held_ids, ids), held_ids.size - 1)
    found = held_ids[at] == ids
    if found.all():
        # Every id held and as many held as asked for: the same rows.
        rows = held_rows if ids.size == held_ids.size else held_rows[at]
        return rows, int(ids.size)
    rest = compute(ids[~found])
    rows = np.empty((ids.size,) + rest.shape[1:], dtype=rest.dtype)
    rows[found] = held_rows[at[found]]
    rows[~found] = rest
    return rows, int(found.sum())


def _requantize(
    kept: Optional[Tuple[bytes, QuantizationGrid, np.ndarray,
                         GaussianMixture]],
    key: bytes,
    mixture: GaussianMixture,
    grid: QuantizationGrid,
) -> Tuple[np.ndarray, int]:
    """Pmf rows of a block holding frames ``key`` with ``mixture``.

    ``quantize_mixtures`` is row-independent, so a row of ``kept``
    (the block's last ``(key, grid, pmf rows, mixture)``) is reused
    where the grid is the same and the row's frame id and ``(pi, mu,
    sigma)`` row are bitwise unchanged — the network re-scores a grown
    block whole, and a batch-shape-dependent BLAS may move some rows;
    the rest are quantized. Returns the rows and how many were
    quantized.
    """
    if kept is None or kept[1] != grid:
        return quantize_mixtures(mixture, grid), len(mixture.pi)

    def bits(m: GaussianMixture) -> np.ndarray:
        return np.hstack([m.pi, m.mu, m.sigma]).view(np.uint8)

    ids = np.frombuffer(key, dtype=np.int64)
    old_ids = np.frombuffer(kept[0], dtype=np.int64)
    at = np.minimum(np.searchsorted(old_ids, ids), old_ids.size - 1)
    same = (old_ids[at] == ids) \
        & (bits(mixture) == bits(kept[3])[at]).all(axis=1)
    fresh = ~same
    pmf = np.empty((ids.size, grid.num_levels))
    pmf[same] = kept[2][at[same]]
    pmf[fresh] = quantize_mixtures(mixture.select(fresh), grid)
    return pmf, int(fresh.sum())


class BlockInferenceCache:
    """Proxy inference cached per 512-row block of the retained array.

    A block is recomputed only when its frame-id contents change (new
    arrivals, or retain decisions flipped by a provisional clip); the
    tail partial block is naturally provisional until it fills.

    Recomputing a block costs what changed in it, at each layer (a
    proxy is ``featurize`` then the network, and only the network's
    bits depend on the batch — DESIGN.md §7):

    * pixels a pass has in hand (``scanned``) are not rendered again;
    * the ``featurize`` rows of the one partial tail block are kept,
      matched by frame id (:func:`_rows_by_id`), so a grown block
      featurizes its new rows only — and then runs the network over
      the *whole* block's inputs, the batch shape that makes its
      mixtures bit-reproducible;
    * each block's quantized pmf rows are kept next to its mixtures,
      keyed by (block content, grid): quantization is row-independent
      too, so a window is requantized only where the grid changed, or
      where a block changed — and there only the rows whose frame id
      or mixture row moved (:func:`_requantize`).

    Both kinds of derived rows are bounded — fewer than a block of
    feature rows, pmf rows only for blocks holding mixtures — and are
    left out of pickles.

    Blocks below a sliding window's edge hold no mixtures (memory and
    recompute proportional to the live window, not the prefix), but
    one float per block survives eviction — ``max(mu + TRUNCATE_SIGMAS
    * sigma)`` over its rows, keyed by content — so the global grid top
    (an exact max of maxes) is still that of the full prefix. If an
    *expired* block's contents later change (a provisional clip
    straddling the window edge flips a retain decision), its top is
    healed by one O(block) re-inference: the only case where expiry
    costs inference, and it is delta-sized.
    """

    def __init__(self):
        self._blocks: Dict[int, Tuple[bytes, GaussianMixture]] = {}
        #: block index -> (frame-id bytes, max(mu + k*sigma) over rows).
        self._tops: Dict[int, Tuple[bytes, float]] = {}
        #: block index -> (frame-id bytes, grid, pmf rows, mixtures).
        self._pmfs: Dict[int, Tuple[
            bytes, QuantizationGrid, np.ndarray, GaussianMixture]] = {}
        #: (frame ids, featurize rows) of the last partial block scored.
        self._tail: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __getstate__(self):
        # Derived rows stay out of checkpoints: a resumed session
        # recomputes them on first use.
        return {"_blocks": self._blocks, "_tops": self._tops}

    def __setstate__(self, state) -> None:
        self.__init__()
        self.__dict__.update(state)

    def block(
        self,
        b: int,
        ids: np.ndarray,
        proxy,
        video,
        counter=None,
        scanned: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        featurized: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> GaussianMixture:
        """Mixtures of block ``b`` holding frames ``ids``.

        A hit when the slot's frame-id contents match; otherwise the
        block's feature rows are completed — kept tail rows first, then
        ``featurized = (frame ids, featurize rows)`` the caller holds
        (a bootstrap's labelled sample), then ``scanned = (frame ids,
        float32 pixels)`` a pass has in hand, ``video.batch_pixels``
        for whatever none covers — scored as one batch and cached.
        ``counter.fresh_inferred_frames`` (the calling maintainer's)
        counts the rows through the network.
        """
        key = ids.tobytes()
        cached = self._blocks.get(b)
        if cached is not None and cached[0] == key:
            return cached[1]
        with trace_span(
                "block_miss", category="phase1", block=b,
                rows=int(ids.size), rows_featurized=0,
                rows_from_scan=0) as miss_span:

            def featurize(missing: np.ndarray) -> np.ndarray:
                pixels, from_scan = _rows_by_id(
                    missing, scanned, video.batch_pixels)
                if miss_span is not None:
                    miss_span.set(
                        rows_featurized=int(missing.size),
                        rows_from_scan=from_scan)
                return proxy.featurize(pixels)

            features, _ = _rows_by_id(
                ids, self._tail,
                lambda rest: _rows_by_id(rest, featurized, featurize)[0])
            mixture = proxy.predict_features(features)
        if ids.size < INFER_BLOCK:
            self._tail = (ids.copy(), features)
        self._blocks[b] = (key, mixture)
        if counter is not None:
            counter.fresh_inferred_frames += int(ids.size)
        return mixture

    def _quantized(
        self,
        window: List[Tuple[int, bytes, GaussianMixture]],
        grid: QuantizationGrid,
    ) -> List[np.ndarray]:
        """Pmf rows of the window's blocks on ``grid``, block by block:
        kept where block content and grid are both unchanged; where
        only the content changed, kept for each row whose frame id and
        mixture row are bitwise unchanged and requantized for the rest;
        requantized whole on a new grid."""
        rows: List[np.ndarray] = []
        blocks = fresh_rows = total_rows = 0
        with trace_span("requantize", category="phase1") as span:
            for b, key, mixture in window:
                kept = self._pmfs.get(b)
                total_rows += len(mixture.pi)
                if kept is None or kept[:2] != (key, grid):
                    pmf, fresh = _requantize(kept, key, mixture, grid)
                    kept = (key, grid, pmf, mixture)
                    self._pmfs[b] = kept
                    blocks += 1
                    fresh_rows += fresh
                rows.append(kept[2])
            if span is not None:
                span.set(blocks_requantized=blocks,
                         blocks_reused=len(window) - blocks,
                         rows_requantized=fresh_rows,
                         rows_reused=total_rows - fresh_rows)
        return rows

    def window_state(
        self,
        proxy,
        video,
        retained: np.ndarray,
        cut: int,
        *,
        grid_of: Callable[[Optional[float]], QuantizationGrid],
        counter=None,
    ) -> Tuple[GaussianMixture, QuantizationGrid, np.ndarray]:
        """Mixtures and pmf rows for ``retained[cut:]`` on the
        full-prefix grid.

        ``cut`` is the number of leading retained rows outside the
        window (0: no window, nothing is ever evicted).
        ``grid_of(top)`` chooses the quantization grid given ``top``,
        bitwise :func:`~repro.core.uncertain.mixture_envelope` of *all*
        retained rows (``None`` when nothing is retained). Returns
        ``(mixtures, grid, pmf)``; the pmf rows are bitwise
        :func:`~repro.core.uncertain.quantize_mixtures` of the
        mixtures and the caller's to keep.
        """
        retained = np.asarray(retained, dtype=np.int64)
        num_blocks = -(-retained.size // INFER_BLOCK)
        first_block = cut // INFER_BLOCK
        #: The window's blocks as validated by this pass.
        window: List[Tuple[int, bytes, GaussianMixture]] = []
        top: Optional[float] = None
        for b in range(num_blocks):
            ids = retained[b * INFER_BLOCK:(b + 1) * INFER_BLOCK]
            key = ids.tobytes()
            mixture: Optional[GaussianMixture] = None
            if b >= first_block:
                mixture = self.block(b, ids, proxy, video, counter)
                window.append((b, key, mixture))
            cached_top = self._tops.get(b)
            if cached_top is not None and cached_top[0] == key:
                block_top = cached_top[1]
            else:
                if mixture is None:
                    # An expired block without a top: primed by the
                    # scan (a hit), or its contents changed or were
                    # never seen (one O(block) re-inference heals the
                    # top). Either way the mixture is retracted again
                    # below.
                    mixture = self.block(b, ids, proxy, video, counter)
                block_top = mixture_envelope(mixture)
                self._tops[b] = (key, block_top)
            top = block_top if top is None else max(top, block_top)
        grid = grid_of(top)
        rows = self._quantized(window, grid)
        # Retraction: expired blocks drop their mixtures and pmf rows;
        # stale trailing blocks drop everything (a provisional clip's
        # flipped retain decisions can shrink the retained array).
        for held in (self._blocks, self._pmfs):
            for b in [b for b in held
                      if b < first_block or b >= num_blocks]:
                del held[b]
        for b in [b for b in self._tops if b >= num_blocks]:
            del self._tops[b]
        offset = cut - first_block * INFER_BLOCK
        mixtures = GaussianMixture.concatenate(
            [mixture for _, _, mixture in window]).select(
                slice(offset, None))
        pmf = np.concatenate(rows)[offset:] if rows \
            else np.zeros((0, grid.num_levels))
        return mixtures, grid, pmf


class Phase1Maintainer:
    """Assembles D0 from maintained Phase-1 state — the only place.

    :meth:`bootstrap` runs steps 1-5 over the frames that have arrived;
    after the video grows (:meth:`scan_arrivals`) or its window
    slides, :meth:`rebuild_entry` yields the entry a from-scratch run
    over the current prefix would: the labels, the trained proxy and
    the inference blocks (mixtures and their pmf rows) are kept, the
    relation is assembled from them — requantizing only blocks that
    changed — and the ledger is replayed.

    On a live sliding-window video the relation covers window rows
    only, while the quantization grid, the detector state and the
    ledger all remain those of the **full prefix** — the batch
    reference for a windowed answer is a from-scratch run over the
    whole prefix restricted to the window
    (:func:`~repro.core.uncertain.restrict_relation`).
    """

    def __init__(
        self,
        video: SyntheticVideo,
        label_oracle: Oracle,
        config: EverestConfig,
        unit_costs: Optional[Dict[str, float]] = None,
    ):
        self.video = video
        #: Labels the samples; its own ledger is not Phase 1's (entries
        #: carry the replayed sequence), its call counters are.
        self.label_oracle = label_oracle
        self.scoring = label_oracle.scoring
        self.config = config
        self.unit_costs = dict(unit_costs or {})
        #: Rows this maintainer ran through the proxy network (block
        #: cache misses): the physical inference a clock event paid.
        self.fresh_inferred_frames = 0

        self.diff = IncrementalDiff(config.diff)
        self.blocks = BlockInferenceCache()
        self.known_scores: Dict[int, float] = {}
        self.grid_result: Optional[GridResult] = None
        self.train_idx = np.zeros(0, dtype=np.int64)
        self.holdout_idx = np.zeros(0, dtype=np.int64)

    @property
    def proxy(self) -> ProxyScorer:
        """The trained proxy: the grid's winner."""
        return self.grid_result.proxy

    def bootstrap(self, cost_model: Optional[CostModel] = None) -> Phase1Entry:
        """Phase 1 from scratch over the frames that have arrived."""
        video, phase1, seed = self.video, self.config.phase1, self.config.seed
        rng = np.random.default_rng(seed)
        # ``sample_prefix`` (None for plain batch runs) restricts both
        # the sampling pool and the sample-size arithmetic to a leading
        # slice of the video — the anchor streaming sessions train
        # against.
        pool = phase1.sample_pool(len(video))
        train = phase1.train_sample_size(pool)
        holdout = phase1.holdout_sample_size(pool)
        if train >= pool:
            # Refused before a label is bought; a split that leaves any
            # holdout frame at all is left as it is (DESIGN.md §3).
            raise ConfigurationError(
                f"cannot build Phase 1 on {pool} frames: {train} training "
                f"samples leave none of them for the {holdout}-frame "
                "holdout (lower phase1.min_train_samples, or start from "
                "more frames)")
        train_idx, holdout_idx = _sample_indices(rng, pool, train, holdout)

        # 1. Oracle-label the samples (this is real oracle cost).
        train_scores = self.label_oracle.score(video, train_idx)
        holdout_scores = self.label_oracle.score(video, holdout_idx)
        for idx, score in zip(train_idx, train_scores):
            self.known_scores[int(idx)] = float(score)
        for idx, score in zip(holdout_idx, holdout_scores):
            self.known_scores[int(idx)] = float(score)
        self.train_idx, self.holdout_idx = train_idx, holdout_idx

        # 2. Render and featurize the sample once, by frame id; train
        # the (g, h) grid on those rows; select by holdout NLL.
        sample = np.sort(np.concatenate([train_idx, holdout_idx]))
        pixels = video.batch_pixels(sample)
        features = proxy_family(
            phase1, video.resolution)[0].featurize(pixels)
        self.grid_result = train_proxy_grid(
            features[np.searchsorted(sample, train_idx)],
            train_scores,
            features[np.searchsorted(sample, holdout_idx)],
            holdout_scores,
            config=phase1,
            input_hw=video.resolution,
            seed=seed,
        )

        # 3 + 4 are one pass, which reuses the sample's rows; 5 runs
        # inside rebuild_entry, on cache hits.
        self.scan_arrivals(sample=(sample, pixels, features))
        return self.rebuild_entry(cost_model)

    def scan_arrivals(
        self,
        sample: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    ) -> int:
        """Steps 3 + 4 over the frames that arrived since the last scan.

        One pass: the detector renders each block of clips once — the
        arrivals, while the provisional clip it re-decides comes from
        the pixels :class:`IncrementalDiff` kept — and the retained
        rows go, pixels in hand, to the block cache
        INFER_BLOCK rows at a time (a block whose frame ids are
        unchanged is a hit and is not re-inferred). ``sample = (frame ids
        ascending, float32 pixels, featurize rows)`` are frames the
        caller holds for this call only (a bootstrap's labelled
        sample): the pass fills their rows in by frame id and renders
        and featurizes the rest. Returns the first frame whose retain
        decision may have changed.
        """
        render = featurized = None
        if sample is not None:
            held_ids, held_pixels, held_features = sample
            featurized = (held_ids, held_features)

            def render(ids: np.ndarray) -> np.ndarray:
                return _rows_by_id(
                    ids, (held_ids, held_pixels), self.video.batch_pixels)[0]

        # Rows retained below the re-scanned clip are final; those of
        # them in the block the scan's first row falls into lead it.
        settled = np.flatnonzero(
            self.diff.retained_mask[:self.diff.provisional_from])
        blocks = RowChunker(
            INFER_BLOCK,
            lambda b, ids, pixels: self.blocks.block(
                b, np.concatenate([settled[b * INFER_BLOCK:], ids]),
                self.proxy, self.video, self, scanned=(ids, pixels),
                featurized=featurized),
            first_row=settled.size)
        start = self.diff.extend(
            self.video, len(self.video), on_retained=blocks.push,
            render=render)
        blocks.close()
        return start

    def rebuild_entry(
        self, cost_model: Optional[CostModel] = None
    ) -> Phase1Entry:
        """The entry a from-scratch run over the current prefix builds.

        Charges ``cost_model`` (default: a fresh deterministic ledger —
        Phase-1 charges are purely simulated, so merged ledgers built
        from them must not re-enable wall-clock timers).
        """
        diff_result = self.diff.result()
        retained = diff_result.retained
        lo = self.video.window_lo if is_sliding(self.video) else 0
        cut = int(np.searchsorted(retained, lo, side="left"))
        step = self.scoring.step
        floor = self.scoring.score_floor
        # The full-prefix grid: every retained row's envelope and every
        # known score take part — expired or not — exactly as in a
        # batch run; only the rows *in* the relation are windowed.
        mixtures, grid, pmf = self.blocks.window_state(
            self.proxy,
            self.video,
            retained,
            cut,
            grid_of=lambda envelope: grid_covering(
                envelope, floor=floor, step=step,
                extra_scores=list(self.known_scores.values())),
            counter=self,
        )
        relation = build_relation(
            retained[cut:],
            mixtures,
            floor=floor,
            step=step,
            known_scores={
                f: s for f, s in self.known_scores.items() if f >= lo},
            grid=grid,
            pmf=pmf,
        )
        if cost_model is None:
            cost_model = CostModel(self.unit_costs)
        replay_phase1_charges(
            cost_model,
            train_labels=int(self.train_idx.size),
            holdout_labels=int(self.holdout_idx.size),
            sample_epochs=self.grid_result.sample_epochs,
            num_frames=len(self.video),
            num_retained=int(retained.size),
        )
        return Phase1Entry(
            relation=relation,
            grid_result=self.grid_result,
            diff_result=diff_result,
            known_scores=self.known_scores,
            mixtures=mixtures,
            cost_model=cost_model,
        )


def run_phase1(
    video: SyntheticVideo,
    scoring: ScoringFunction,
    unit_costs: Optional[Dict[str, float]],
    config: EverestConfig,
    *,
    cost_model: Optional[CostModel] = None,
) -> Phase1Entry:
    """Build D0 for a closed ``video``: a maintainer that never appends.

    The one Phase-1 build routine — of a session, of the service's
    single-flight builds (inline or in a pool worker) and of the
    CMDN-only baseline. The samples are labelled by an oracle with a
    ledger of its own; ``cost_model`` (default: a fresh ledger at
    ``unit_costs``) receives the whole Phase-1 charge sequence,
    labelling included. Charges are purely simulated, so two builds of
    the same ``(video, scoring, config)`` are bit-identical entries.
    """
    return Phase1Maintainer(
        video, Oracle(scoring, cost_key="oracle_label"), config, unit_costs,
    ).bootstrap(cost_model)

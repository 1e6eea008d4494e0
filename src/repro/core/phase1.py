"""Phase 1: build the initial uncertain relation D0 (paper Section 3.2).

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

Steps 3 and 4 are one pass over the video: the detector renders each
block of clips once and hands the retained rows, pixels in hand, to
proxy inference, which still scores them in exactly the chunks a
separate pass over the retained array would (see :class:`RowChunker`).
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..config import DiffDetectorConfig, Phase1Config
from ..models.cmdn import ProxyScorer
from ..models.mdn import GaussianMixture
from ..models.trainer import GridResult, train_proxy_grid
from ..oracle.base import Oracle
from ..parallel.pool import resolve_workers
from ..video.diff import DifferenceDetector, DiffResult
from ..video.synthetic import SyntheticVideo
from .uncertain import UncertainRelation, build_relation

#: Chunk size for proxy inference over the retained frames.
_INFER_CHUNK = 2_048


class RowChunker:
    """Regroups rows that arrive in arbitrary batches into fixed chunks.

    ``push(ids, pixels)`` accepts any number of rows; ``consume(number,
    ids, pixels)`` is called with exactly ``chunk`` rows at a time (the
    last call, from :meth:`close`, with what is left), numbered from 0.
    Proxy inference is only bit-reproducible at fixed batch boundaries
    (BLAS accumulation differs across batch shapes, DESIGN.md §7), so
    whoever feeds inference from a producer with its own block size
    goes through here. At most one chunk of rows is ever pending; every
    chunk is handed over in a fresh buffer the consumer may keep.
    """

    def __init__(
        self,
        chunk: int,
        consume: Callable[[int, np.ndarray, np.ndarray], None],
    ):
        self._chunk = chunk
        self._consume = consume
        self._ids: Optional[np.ndarray] = None
        self._pixels: Optional[np.ndarray] = None
        self._fill = 0
        self._number = 0

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
        if self._fill:
            ids, pixels = self._ids[:self._fill], self._pixels[:self._fill]
            self._ids = self._pixels = None
            self._fill = 0
            self._number += 1
            self._consume(self._number - 1, ids, pixels)


class _ChunkScorer:
    """Scores pixel chunks with the proxy and concatenates in order.

    With more than one worker, chunks are scored on threads (numpy
    releases the GIL in the dense kernels) with at most ``workers`` in
    flight; the result is identical for every worker count.
    """

    def __init__(self, proxy: ProxyScorer, workers: Optional[int]):
        self._proxy = proxy
        self._workers = resolve_workers(workers)
        self._pool = ThreadPoolExecutor(max_workers=self._workers) \
            if self._workers > 1 else None
        self._parts: List[Union[GaussianMixture, Future]] = []

    def __enter__(self) -> "_ChunkScorer":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def score(self, pixels: np.ndarray) -> None:
        if self._pool is None:
            self._parts.append(self._proxy.predict_mixtures(pixels))
            return
        if len(self._parts) >= self._workers:
            self._parts[-self._workers].result()  # bounds pending pixels
        self._parts.append(
            self._pool.submit(self._proxy.predict_mixtures, pixels))

    def mixtures(self) -> GaussianMixture:
        return GaussianMixture.concatenate(
            [p.result() if isinstance(p, Future) else p
             for p in self._parts])


def predict_mixtures_chunked(
    proxy: ProxyScorer,
    video: SyntheticVideo,
    retained: np.ndarray,
    *,
    chunk: int = _INFER_CHUNK,
    workers: Optional[int] = None,
) -> GaussianMixture:
    """Proxy inference over ``retained`` frames, chunked and parallel.

    The stand-alone form of step 4, for callers that hold only frame
    ids: each chunk is rendered, then scored like :func:`run_phase1`
    scores it.
    """
    with _ChunkScorer(proxy, workers) as scorer:
        for start in range(0, retained.size, chunk):
            scorer.score(video.batch_pixels(retained[start:start + chunk]))
        return scorer.mixtures()


def replay_phase1_charges(
    cost_model,
    *,
    train_labels: int,
    holdout_labels: int,
    sample_epochs: int,
    num_frames: int,
    num_retained: int,
) -> None:
    """Charge ``cost_model`` exactly as :func:`run_phase1` would.

    The streaming subsystem maintains Phase 1 incrementally but reports
    batch-equivalent ledgers: after each append it replays the charge
    sequence a from-scratch :func:`run_phase1` over the current prefix
    would issue. The order matters — :class:`~repro.oracle.cost.CostModel`
    accumulates ``seconds`` additively, so only the same sequence of
    ``charge`` calls reproduces the same floats bit for bit. Keep this
    in lockstep with the charge sites in :func:`run_phase1` (each line
    below names the step it mirrors).
    """
    # Step 1: oracle.score(train) then oracle.score(holdout), then the
    # decode of both sample batches.
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


@dataclass
class Phase1Result:
    """Everything Phase 2 (and the experiments) need from Phase 1."""

    relation: UncertainRelation
    proxy: ProxyScorer
    grid_result: GridResult
    diff_result: DiffResult
    #: Exact scores observed while labelling samples (frame -> score).
    known_scores: Dict[int, float]
    #: Mixtures for each retained frame (aligned with diff retained).
    mixtures: GaussianMixture


def _sample_indices(
    rng: np.random.Generator, num_frames: int, train: int, holdout: int
):
    total = min(train + holdout, num_frames)
    chosen = rng.choice(num_frames, size=total, replace=False)
    return chosen[:train], chosen[train:]


def run_phase1(
    video: SyntheticVideo,
    oracle: Oracle,
    *,
    config: Optional[Phase1Config] = None,
    diff_config: Optional[DiffDetectorConfig] = None,
    cost_model=None,
    seed: int = 0,
    infer_workers: Optional[int] = None,
) -> Phase1Result:
    """Build D0 for ``video`` under the given oracle scoring function.

    ``infer_workers`` parallelizes step 4's chunked proxy inference
    (default: the ``REPRO_WORKERS`` environment variable, else serial);
    the result is identical for every worker count.
    """
    config = config if config is not None else Phase1Config()
    diff_config = diff_config if diff_config is not None \
        else DiffDetectorConfig()
    num_frames = len(video)
    rng = np.random.default_rng(seed)
    # ``sample_prefix`` (None for plain batch runs) restricts both the
    # sampling pool and the sample-size arithmetic to a leading slice of
    # the video — the anchor streaming sessions train against.
    pool = config.sample_pool(num_frames)
    train_size = config.train_sample_size(pool)
    holdout_size = config.holdout_sample_size(pool)
    train_idx, holdout_idx = _sample_indices(
        rng, pool, train_size, holdout_size)

    # 1. Oracle-label the samples (this is real oracle cost).
    train_scores = oracle.score(video, train_idx)
    holdout_scores = oracle.score(video, holdout_idx)
    known_scores: Dict[int, float] = {}
    for idx, score in zip(train_idx, train_scores):
        known_scores[int(idx)] = float(score)
    for idx, score in zip(holdout_idx, holdout_scores):
        known_scores[int(idx)] = float(score)

    if cost_model is not None:
        cost_model.charge("decode", len(train_idx) + len(holdout_idx))
    train_pixels = video.batch_pixels(train_idx)
    holdout_pixels = video.batch_pixels(holdout_idx)

    # 2. Train the (g, h) grid; select by holdout NLL.
    grid_result = train_proxy_grid(
        train_pixels,
        train_scores,
        holdout_pixels,
        holdout_scores,
        config=config,
        input_hw=video.resolution,
        seed=seed,
    )
    if cost_model is not None:
        cost_model.charge("cmdn_train", grid_result.sample_epochs)

    # 3 + 4. Difference detection over the whole video, its retained
    # rows regrouped into inference chunks and scored (chunk-parallel)
    # as the pass goes: every frame is rendered once.
    proxy = grid_result.proxy
    with _ChunkScorer(proxy, infer_workers) as scorer:
        chunks = RowChunker(
            _INFER_CHUNK, lambda number, ids, pixels: scorer.score(pixels))
        diff_result = DifferenceDetector(diff_config).run(
            video, on_retained=chunks.push)
        chunks.close()
        mixtures = scorer.mixtures()
    retained = diff_result.retained
    if cost_model is not None:
        cost_model.charge("diff_detect", num_frames)
        cost_model.charge("decode", num_frames)
        cost_model.charge("cmdn_infer", retained.size)

    # 5. Quantize into x-tuples; known frames become certain tuples.
    step = config.quantization_step
    if step is None:
        step = oracle.scoring.step
    relation = build_relation(
        retained,
        mixtures,
        floor=oracle.scoring.score_floor,
        step=step,
        known_scores=known_scores,
        truncate_sigmas=config.truncate_sigmas,
    )
    return Phase1Result(
        relation=relation,
        proxy=proxy,
        grid_result=grid_result,
        diff_result=diff_result,
        known_scores=known_scores,
        mixtures=mixtures,
    )

"""x-tuples, quantization, and the uncertain relation (paper Section 3.2).

An uncertain relation is a collection of x-tuples, one per retained
frame; each x-tuple is a discrete distribution over possible scores.
Everest obtains the distributions from the CMDN's Gaussian mixtures by
(a) truncating each component beyond :data:`TRUNCATE_SIGMAS` sigmas
with the trimmed mass spread evenly over the remaining support
(following Chopin [17] as the paper does) and (b) quantizing onto a
uniform grid: non-negative integers for counting scores, or the UDF's
own step otherwise.

Frames whose exact scores were already obtained while collecting the
training / holdout samples are inserted as *certain* tuples so no
oracle work is wasted.

The relation stores dense ``(num_tuples, num_levels)`` pmf / cdf
matrices: score grids are small (counts 0..~20; quantized continuous
scores a few hundred levels), which keeps every Phase 2 computation a
vectorized slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from ..errors import ConfigurationError, UncertainRelationError
from ..models.mdn import GaussianMixture

#: Guard on grid size; larger grids indicate a mis-chosen step.
MAX_LEVELS = 2_048

#: Gaussian tails beyond ``mu +/- TRUNCATE_SIGMAS * sigma`` are cut
#: (paper Section 3.2). The one place the possible worlds' support is
#: set: every grid and every pmf in the library reads it from here.
TRUNCATE_SIGMAS = 3.0


@dataclass(frozen=True)
class QuantizationGrid:
    """Uniform score grid: level ``t`` represents ``floor + t * step``."""

    floor: float
    step: float
    num_levels: int

    def __post_init__(self):
        if self.step <= 0:
            raise ConfigurationError("quantization step must be positive")
        if self.num_levels < 1:
            raise ConfigurationError("num_levels must be >= 1")
        if self.num_levels > MAX_LEVELS:
            raise ConfigurationError(
                f"quantization grid of {self.num_levels} levels exceeds "
                f"{MAX_LEVELS}; choose a coarser step")

    @property
    def max_level(self) -> int:
        return self.num_levels - 1

    def level_of(self, score) -> np.ndarray:
        """Nearest grid level for score(s), clipped into the grid."""
        levels = np.rint((np.asarray(score) - self.floor) / self.step)
        # np.clip's rule, NaN included, without its Python wrapper: a
        # query calls this once per cleaned batch.
        return np.minimum(
            np.maximum(levels, 0), self.max_level).astype(np.int64)

    def score_of(self, level) -> np.ndarray:
        """Representative score of grid level(s)."""
        return self.floor + np.asarray(level, dtype=np.float64) * self.step

    def edges(self) -> np.ndarray:
        """Bin edges: level ``t`` owns ``[edges[t], edges[t+1])``; the
        bottom and top bins absorb the tails."""
        inner = self.floor + (np.arange(self.num_levels - 1) + 0.5) * self.step
        return np.concatenate(([-np.inf], inner, [np.inf]))


def mixture_envelope(mixtures: GaussianMixture) -> Optional[float]:
    """``max(mu + k sigma)`` over every row (``None`` without rows).

    An exact max, so the envelope of a row set equals the max of its
    subsets' envelopes — how the block cache keeps a full-prefix grid
    while holding only the open window's mixtures (DESIGN.md §13).
    """
    if not mixtures.pi.size:
        return None
    return float(np.max(mixtures.mu + TRUNCATE_SIGMAS * mixtures.sigma))


def grid_covering(
    envelope: Optional[float],
    *,
    floor: float,
    step: float,
    extra_scores: Optional[Sequence[float]] = None,
) -> QuantizationGrid:
    """The grid reaching a mixture ``envelope`` and every extra score."""
    top = floor + step  # at least two levels
    if envelope is not None:
        top = max(top, envelope)
    if extra_scores is not None and len(extra_scores) > 0:
        top = max(top, float(np.max(extra_scores)))
    num_levels = int(np.ceil((top - floor) / step)) + 1
    return QuantizationGrid(floor=floor, step=step, num_levels=num_levels)


def grid_for(
    mixtures: GaussianMixture,
    *,
    floor: float,
    step: float,
    extra_scores: Optional[Sequence[float]] = None,
) -> QuantizationGrid:
    """Choose a grid covering all mixtures (to ``k sigma``) and scores."""
    return grid_covering(
        mixture_envelope(mixtures),
        floor=floor, step=step, extra_scores=extra_scores)


def quantize_mixtures(
    mixtures: GaussianMixture,
    grid: QuantizationGrid,
) -> np.ndarray:
    """Quantize batched mixtures onto the grid as ``(N, L)`` pmfs.

    Per component: Gaussian mass is integrated per bin with the
    integration range clipped to ``mu +/- k sigma``; the trimmed tail
    mass is spread evenly over the bins intersecting that range (the
    paper's "set to zero and evenly distributed to the rest"). Component
    pmfs are then mixed by ``pi`` and renormalized.
    """
    n, g = mixtures.pi.shape
    edges = grid.edges()  # (L+1,)
    pmf = np.zeros((n, grid.num_levels))
    if n == 0:
        return pmf

    lo = (mixtures.mu - TRUNCATE_SIGMAS * mixtures.sigma)  # (N, g)
    hi = (mixtures.mu + TRUNCATE_SIGMAS * mixtures.sigma)
    for j in range(g):
        mu = mixtures.mu[:, j][:, None]
        sigma = mixtures.sigma[:, j][:, None]
        clipped = np.clip(edges[None, :], lo[:, j][:, None], hi[:, j][:, None])
        clipped_lo, clipped_hi = clipped[:, :-1], clipped[:, 1:]
        # Adjacent bins share an edge: one ndtr per clipped edge.
        cdf = ndtr((clipped - mu) / sigma)
        mass = cdf[:, 1:] - cdf[:, :-1]
        # Spread the trimmed tail mass evenly over the touched bins.
        touched = clipped_hi > clipped_lo
        num_touched = np.maximum(touched.sum(axis=1, keepdims=True), 1)
        trimmed = 1.0 - mass.sum(axis=1, keepdims=True)
        mass = mass + touched * (trimmed / num_touched)
        pmf += mixtures.pi[:, j][:, None] * mass

    totals = pmf.sum(axis=1, keepdims=True)
    totals[totals <= 0] = 1.0
    return np.clip(pmf / totals, 0.0, None)


def all_distinct(values: np.ndarray) -> bool:
    """Whether no value of ``values`` repeats (read flat).

    Sorted neighbours are compared: on NumPy 2.4 ``np.unique`` takes a
    hash path instead, an order of magnitude slower on a live window's
    ~1 300 ids.
    """
    ordered = np.sort(values, axis=None)
    return not (ordered[1:] == ordered[:-1]).any()


class UncertainRelation:
    """The uncertain relation D: x-tuples over retained frames.

    Tuples are either *uncertain* (a pmf from the proxy) or *certain*
    (an oracle-observed score). Cleaning a tuple replaces its pmf with
    a point mass and records the exact score.
    """

    #: Memo of :meth:`log_tables` — derived state: shared read-only
    #: with every copy and every query's cleaner, dropped by in-place
    #: cleaning (popped, so a relation without one has a fresh
    #: relation's ``vars``), never pickled.
    _log_tables = None

    #: Memo of :meth:`level_columns` (grid level -> columns), under the
    #: same rules as ``_log_tables``; a row-restricted clone takes rows
    #: of every column built so far.
    _columns = None

    def __init__(
        self,
        ids: Sequence[int],
        pmf: np.ndarray,
        grid: QuantizationGrid,
    ):
        ids = np.asarray(ids, dtype=np.int64)
        pmf = np.asarray(pmf, dtype=np.float64)
        if pmf.ndim != 2 or pmf.shape[0] != ids.size:
            raise UncertainRelationError(
                f"pmf shape {pmf.shape} incompatible with {ids.size} ids")
        if pmf.shape[1] != grid.num_levels:
            raise UncertainRelationError(
                f"pmf has {pmf.shape[1]} levels, grid has {grid.num_levels}")
        if not all_distinct(ids):
            raise UncertainRelationError("tuple ids must be unique")
        sums = pmf.sum(axis=1)
        if pmf.size and not np.allclose(sums, 1.0, atol=1e-6):
            raise UncertainRelationError("each x-tuple pmf must sum to 1")

        self.grid = grid
        self.ids = ids
        self.pmf = pmf
        self.cdf = np.clip(np.cumsum(pmf, axis=1), 0.0, 1.0)
        self.cdf[:, -1] = 1.0
        self.certain = np.zeros(ids.size, dtype=bool)
        #: Exact (unquantized) score for certain tuples, NaN otherwise.
        self.exact_scores = np.full(ids.size, np.nan)
        self._pos: Dict[int, int] = dict(zip(ids.tolist(), range(ids.size)))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.ids.size)

    @property
    def num_certain(self) -> int:
        return int(self.certain.sum())

    @property
    def num_uncertain(self) -> int:
        return len(self) - self.num_certain

    def position(self, frame_id: int) -> int:
        try:
            return self._pos[int(frame_id)]
        except KeyError:
            raise UncertainRelationError(
                f"frame {frame_id} not in relation") from None

    def mark_certain(self, position: int, score: float) -> int:
        """Clean one tuple: point-mass pmf at the score's level.

        Returns the quantized level of the observed score.
        """
        if self.certain[position]:
            raise UncertainRelationError(
                f"tuple at position {position} already certain")
        self._drop_derived()
        level = int(self.grid.level_of(score))
        self.pmf[position, :] = 0.0
        self.pmf[position, level] = 1.0
        self.cdf[position, :] = 0.0
        self.cdf[position, level:] = 1.0
        self.certain[position] = True
        self.exact_scores[position] = float(score)
        return level

    def mark_certain_many(
        self, positions: np.ndarray, scores: np.ndarray
    ) -> np.ndarray:
        """Clean a batch of tuples in one vectorized pass.

        Equivalent to calling :meth:`mark_certain` per tuple, but the
        pmf / cdf rows are rewritten with a single fancy-indexed
        assignment each — how D0's known scores go in at build time.
        Returns the quantized levels of the observed scores.
        """
        positions = np.asarray(positions, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        if positions.size != scores.size:
            raise UncertainRelationError(
                f"{positions.size} positions but {scores.size} scores")
        if positions.size == 0:
            return np.zeros(0, dtype=np.int64)
        if not all_distinct(positions):
            raise UncertainRelationError(
                "batch positions must be unique")
        if self.certain[positions].any():
            raise UncertainRelationError(
                "batch contains already-certain tuples")
        self._drop_derived()
        levels = self.grid.level_of(scores)
        self.pmf[positions, :] = 0.0
        self.pmf[positions, levels] = 1.0
        self.cdf[positions, :] = (
            np.arange(self.grid.num_levels)[None, :] >= levels[:, None])
        self.certain[positions] = True
        self.exact_scores[positions] = scores
        return levels

    def uncertain_positions(self) -> np.ndarray:
        return np.flatnonzero(~self.certain)

    def expected_scores(self) -> np.ndarray:
        """Per-tuple pmf means in score units (certain -> exact level)."""
        levels = self.grid.score_of(np.arange(self.grid.num_levels))
        return self.pmf @ levels

    def log_tables(self):
        """``(log F, F == 0, finite_sum, zero_count)`` of the tuples as
        they are now: what Topk-prob starts every query from.

        ``log F`` is the ``(N, L)`` log-cdf with 0 stored where
        ``F == 0`` (the mask says where); the two ``(L,)`` vectors are
        its column sums and the mask's over the uncertain rows. Built
        on first use and kept: callers only read the tables and copy
        the vectors. Two threads racing the first use both build the
        same values; either assignment may win.
        """
        tables = self._log_tables
        if tables is None:
            with np.errstate(divide="ignore"):
                log_cdf = np.log(self.cdf)
            zero = np.isneginf(log_cdf)
            log_cdf[zero] = 0.0
            tables = self._log_tables = _with_sums(
                log_cdf, zero, ~self.certain)
        return tables

    def level_columns(self, level: int):
        """``(log F, F == 0, F, pmf)`` at grid ``level``: contiguous
        ``(N,)`` copies of one column of :meth:`log_tables` and of the
        cdf / pmf.

        Phase 2's per-candidate reads gather a few levels of a few
        hundred tuples (Eq. 6 spans ``S_k..S_p``, usually one or two
        levels); a column gathers them with one contiguous ``take``
        where a row-major ``[positions, k:p+1]`` slice walks a stride
        per level. A column is copied when first read and kept, under
        :meth:`log_tables`' rules (two threads racing a first read copy
        equal values); only the levels queries ask for are ever copied.
        """
        columns = self._columns
        if columns is None:
            columns = self._columns = {}
        found = columns.get(level)
        if found is None:
            found = columns[level] = _level_columns(
                (*self.log_tables()[:2], self.cdf, self.pmf), level)
        return found

    def _drop_derived(self) -> None:
        """Forget the memos: the tuples are about to change. Popped, so
        this relation's own ``vars`` look fresh and a copy sharing the
        memos keeps them."""
        self.__dict__.pop("_log_tables", None)
        self.__dict__.pop("_columns", None)

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_log_tables", None)
        state.pop("_columns", None)
        return state

    def copy(self) -> "UncertainRelation":
        return self._clone(None)

    def _clone(self, rows: Optional[np.ndarray]) -> "UncertainRelation":
        """A deep copy of the tuples at ``rows`` (a boolean mask, order
        preserved; ``None``: all of them).

        Clones the already-validated fields: nothing is re-checked or
        re-accumulated (the constructor validates whatever is built
        from outside). The clone shares this relation's
        :meth:`log_tables` and :meth:`level_columns` (a row subset takes
        rows of them).
        """
        take = np.copy if rows is None else (lambda field: field[rows])
        clone = object.__new__(UncertainRelation)
        clone.grid = self.grid
        clone.ids = take(self.ids)
        clone.pmf = take(self.pmf)
        clone.cdf = take(self.cdf)
        clone.certain = take(self.certain)
        clone.exact_scores = take(self.exact_scores)
        clone._pos = dict(self._pos) if rows is None else dict(
            zip(clone.ids.tolist(), range(clone.ids.size)))
        tables = self.log_tables()
        clone._log_tables = tables if rows is None else _with_sums(
            tables[0][rows], tables[1][rows], ~clone.certain)
        columns = self._columns
        if columns is not None:
            clone._columns = columns if rows is None else {
                level: tuple(column[rows] for column in found)
                for level, found in dict(columns).items()}
        return clone


def _with_sums(log_cdf: np.ndarray, zero: np.ndarray, uncertain: np.ndarray):
    """The :meth:`UncertainRelation.log_tables` tuple of these rows."""
    rows = uncertain[:, None]
    return (log_cdf, zero, (log_cdf * rows).sum(axis=0),
            (zero & rows).sum(axis=0).astype(np.int64))


def _level_columns(tables, level: int):
    """The :meth:`UncertainRelation.level_columns` tuple: a contiguous
    copy of column ``level`` of each ``(N, L)`` table."""
    return tuple(np.ascontiguousarray(table[:, level]) for table in tables)


def _rows_in(
    relation: UncertainRelation, ranges: Sequence[Tuple[int, int]]
) -> np.ndarray:
    """Mask of the tuples whose frame id lies in any ``[lo, hi)`` range."""
    mask = np.zeros(relation.ids.size, dtype=bool)
    for lo, hi in ranges:
        mask |= (relation.ids >= int(lo)) & (relation.ids < int(hi))
    return mask


def covers(
    relation: UncertainRelation, ranges: Sequence[Tuple[int, int]]
) -> bool:
    """Whether every tuple lies in the ``[lo, hi)`` ranges: a windowed
    maintainer's relation is the window already, and a reader that never
    writes it can skip :func:`restrict_relation`."""
    return bool(_rows_in(relation, ranges).all())


def restrict_relation(
    relation: UncertainRelation,
    ranges: Sequence[Tuple[int, int]],
) -> UncertainRelation:
    """Row-restrict a relation to frame ids inside any ``[lo, hi)`` range.

    The sliding-window primitive (DESIGN.md §13): row order, pmf/cdf
    rows, certainty flags and — crucially — the quantization grid are
    all preserved, so restricting a full-prefix relation is bitwise
    equal to building the window's rows directly on the same grid.
    Always returns fresh arrays, the identity restriction included (a
    plain copy with the same derived tables), so a caller may clean
    the result in place.
    """
    mask = _rows_in(relation, ranges)
    return relation._clone(None if mask.all() else mask)


def build_relation(
    ids: Sequence[int],
    mixtures: Optional[GaussianMixture],
    *,
    floor: float,
    step: float,
    known_scores: Optional[Dict[int, float]] = None,
    grid: Optional[QuantizationGrid] = None,
    pmf: Optional[np.ndarray] = None,
) -> UncertainRelation:
    """Build D0 from proxy mixtures plus already-known exact scores.

    ``ids`` aligns with ``mixtures`` rows. Frames present in
    ``known_scores`` (the Phase 1 training / holdout samples) are
    inserted as certain tuples; extra known frames not in ``ids`` are
    appended. An explicit ``grid`` overrides :func:`grid_for` — how the
    Phase-1 maintainer keeps the full-prefix grid while materializing
    only the open window's mixtures (DESIGN.md §13), and how a corpus
    puts its members on one shared grid (DESIGN.md §9) — and ``pmf``,
    the mixtures' rows already quantized on that grid
    (:func:`quantize_mixtures` is row-independent, so the maintainer
    keeps them per inference block), replaces the quantization pass;
    the relation takes the array over and writes the known scores'
    rows into it. Nothing writes the relation after that: a query
    keeps what it cleans in its own
    :class:`~repro.core.cleaner.TopKCleaner`.
    ``mixtures`` is read only when ``grid`` or ``pmf`` is missing.
    """
    known_scores = dict(known_scores or {})
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    known_ids = np.fromiter(
        known_scores, dtype=np.int64, count=len(known_scores))
    # Dict keys are distinct: sorted, they are what ``setdiff1d``'s own
    # ``unique`` pass would give, at a sort's cost.
    extra_ids = np.setdiff1d(np.sort(known_ids), ids, assume_unique=True)
    all_scores = list(known_scores.values())

    if grid is None:
        grid = grid_for(
            mixtures,
            floor=floor,
            step=step,
            extra_scores=all_scores,
        )
    if pmf is None:
        pmf = quantize_mixtures(mixtures, grid)
    if extra_ids.size:
        # Placeholder point masses, so the rows pass the relation's pmf
        # check; marking the known rows certain below rewrites them.
        extra = np.zeros((extra_ids.size, grid.num_levels))
        extra[:, 0] = 1.0
        pmf = np.vstack([pmf, extra])

    all_ids = np.concatenate([ids, extra_ids])
    relation = UncertainRelation(all_ids, pmf, grid)
    # Each known frame's position, by one sort of the (distinct) ids.
    order = np.argsort(all_ids)
    relation.mark_certain_many(
        order[np.searchsorted(all_ids, known_ids, sorter=order)],
        all_scores)
    return relation

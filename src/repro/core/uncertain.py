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
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

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

    The normal CDF is evaluated in one call, once per distinct clipped
    edge: adjacent bins share an edge, every edge clipped to one bound
    of a component takes that bound's value, and the bounds (all
    ``≈ ±k``) are deduped across components by one sort — a 512-row
    block of 5 components on 17 levels has 46 080 clipped edges and,
    in a traffic build, about 10 000 distinct values.
    """
    n, g = mixtures.pi.shape
    if not mixtures.pi.size:
        return np.zeros((n, grid.num_levels))

    # One column per component, one row per edge: every step below
    # runs along the long axis.
    mu, sigma = mixtures.mu.ravel(), mixtures.sigma.ravel()
    lo = mu - TRUNCATE_SIGMAS * sigma
    hi = mu + TRUNCATE_SIGMAS * sigma
    clipped = np.clip(grid.edges()[:, None], lo, hi)  # (L+1, N*g)
    on_lo = clipped == lo
    # Index, not mask: a boolean gather and scatter cost more.
    inner = np.flatnonzero(~on_lo & (clipped != hi))
    bounds = np.concatenate(((lo - mu) / sigma, (hi - mu) / sigma))
    distinct = np.sort(bounds)
    distinct = distinct[np.concatenate(
        ([True], distinct[1:] != distinct[:-1]))]
    cdf = clipped - mu
    cdf /= sigma
    flat = cdf.reshape(-1)
    values = _ndtr(np.concatenate((distinct, flat[inner])))
    at_bounds = values[np.searchsorted(distinct, bounds)]
    cdf[...] = at_bounds[mu.size:]
    np.copyto(cdf, at_bounds[:mu.size], where=on_lo)
    flat[inner] = values[distinct.size:]

    # Spread the trimmed tail mass evenly over the touched bins. Each
    # component's mass is summed along its own row, in NumPy's pairwise
    # order, as a row-major layout sums it. Large temporaries reuse the
    # two buffers: fresh pages cost more than the arithmetic here.
    touched = clipped[1:] > clipped[:-1]
    mass = np.subtract(cdf[1:], cdf[:-1], out=clipped[:-1])  # (L, N*g)
    rows = flat[:mass.size].reshape(mass.shape[::-1])
    np.copyto(rows, mass.T)
    trimmed = 1.0 - rows.sum(axis=1)
    mass += np.multiply(
        touched, trimmed / np.maximum(touched.sum(axis=0), 1),
        out=rows.reshape(mass.shape))
    mass *= mixtures.pi.ravel()
    pmf = np.zeros((grid.num_levels, n))
    for j in range(g):  # component order: the sum's rounding
        pmf += mass[:, j::g]

    pmf = pmf.T.copy()
    totals = pmf.sum(axis=1, keepdims=True)
    totals[totals <= 0] = 1.0
    return np.clip(pmf / totals, 0.0, None)


# ----------------------------------------------------------------------
# The normal CDF (DESIGN.md §3)
#
# Cephes' ``ndtr`` / ``erf`` / ``erfc`` — what SciPy's ``special.ndtr``
# computes for a float64 — operation for operation: the same rational
# approximations, Horner steps in ``polevl`` / ``p1evl`` order, and the
# C library's ``exp``. NumPy's own real ``exp`` is a SIMD kernel that
# parts from the C library's in the last bit on some inputs (≈5 % of
# them on an AVX-512 machine); the real part of NumPy's *complex*
# ``exp`` of ``x + 0j`` is the C library's ``cexp``, which is ``exp(x)``
# exactly. ``tests/test_ndtr.py`` pins the port to SciPy and that route
# to ``math.exp``, bit for bit.

#: Cephes' ``M_SQRT1_2`` and ``MAXLOG`` (``log(DBL_MAX)``).
_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2

#: ``erf(x) = x T(x^2) / U(x^2)`` for ``|x| <= 1`` (``U`` monic).
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
#: ``erfc(x) = exp(-x^2) P(x) / Q(x)`` for ``1 <= x < 8`` (``Q`` monic).
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
#: ``erfc(x) = exp(-x^2) R(x) / S(x)`` for ``x >= 8`` (``S`` monic).
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """Cephes' ``polevl``: ``coef[0] x^n + ... + coef[n]`` by Horner."""
    out = x * coef[0]
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _p1evl(x: np.ndarray, coef) -> np.ndarray:
    """Cephes' ``p1evl``: :func:`_polevl` with an implied leading 1."""
    out = x + coef[0]
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _exp(x: np.ndarray) -> np.ndarray:
    """The C library's ``exp``, element-wise (see the section note)."""
    return np.exp(x.astype(np.complex128)).real


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes' ``erf`` for ``|x| < 1``."""
    square = x * x
    out = _polevl(square, _ERF_T)
    out *= x
    out /= _p1evl(square, _ERF_U)
    return out


def _half_erfc(z: np.ndarray) -> np.ndarray:
    """``0.5 * erfc(z)`` by Cephes' ``erfc`` for ``z >= 1`` (or NaN):
    ``exp(-z^2) P(z) / Q(z)`` below 8, ``R / S`` from there, and 0 once
    ``-z^2`` is below ``-MAXLOG``."""
    e = -z * z
    small = z < 8.0
    if small.all():
        return _erfc_tail(z, e, _ERFC_P, _ERFC_Q)
    out = np.zeros_like(z)
    large = ~small & ~(e < -_MAXLOG)
    for rows, p, q in ((small, _ERFC_P, _ERFC_Q),
                       (large, _ERFC_R, _ERFC_S)):
        out[rows] = _erfc_tail(z[rows], e[rows], p, q)
    return out


def _erfc_tail(z: np.ndarray, e: np.ndarray, p, q) -> np.ndarray:
    """``0.5 * exp(e) p(z) / q(z)``, in Cephes' order."""
    out = _polevl(z, p)
    out *= _exp(e)
    out /= _p1evl(z, q)
    out *= 0.5
    return out


def _ndtr(a: np.ndarray) -> np.ndarray:
    """The standard normal CDF of each value of ``a``, bit for bit
    SciPy's ``special.ndtr`` (Cephes: ``0.5 + 0.5 erf(x)`` for
    ``|x| < sqrt(1/2)``, else ``0.5 erfc(|x|)`` or one minus it, where
    ``x = a / sqrt 2`` and ``erfc = 1 - erf`` below 1).

    The values are grouped by branch with one stable sort of a
    one-byte key, so each branch works on a slice: a boolean gather
    and scatter per branch would cost more than the sort.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        flat = np.asarray(a, dtype=np.float64).ravel() * _SQRT1_2
        magnitude = np.abs(flat)
        branch = (magnitude >= _SQRT1_2).view(np.uint8) \
            + (magnitude >= 1.0).view(np.uint8)
        order = np.argsort(branch, kind="stable")
        mid, far = np.searchsorted(branch[order], (1, 2))
        x = flat[order]
        z = np.abs(x)
        y = np.empty_like(x)
        y[:mid] = 0.5 + 0.5 * _erf(x[:mid])
        half = np.empty(x.size - mid)  # 0.5 erfc(|x|)
        half[:far - mid] = 0.5 * (1.0 - _erf(z[mid:far]))
        half[far - mid:] = _half_erfc(z[far:])
        y[mid:] = np.where(x[mid:] > 0, 1.0 - half, half)
        y[np.isnan(z)] = np.nan  # Cephes' NaN, whatever the payload
        out = np.empty_like(y)
        out[order] = y
    return out.reshape(np.shape(a))


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
    (an oracle-observed score: a point mass at its level, the exact
    score kept beside it). A relation is a value: its certain rows are
    written while it is built (:func:`build_relation`'s known scores)
    and every array it holds or hands out is read-only from then on. A
    query keeps what it cleans in its own
    :class:`~repro.core.cleaner.TopKCleaner`.

    What is derived from the tuples — :meth:`log_tables`,
    :meth:`level_columns`, :meth:`memo` — is built on first use, kept
    (the tuples never change) and left out of pickles.
    """

    #: Memo of :meth:`log_tables`.
    _log_tables = None

    #: Memo of :meth:`level_columns` (grid level -> columns).
    _columns = None

    #: Memo of :meth:`memo` (key -> read-only value).
    _memo = None

    def __init__(
        self,
        ids: Sequence[int],
        pmf: np.ndarray,
        grid: QuantizationGrid,
        *,
        known: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ):
        """Validate the tuples and freeze them.

        The relation takes ``ids`` and ``pmf`` over: ``known``, the
        ``(positions, exact scores)`` of the certain tuples
        (:func:`build_relation` passes its known scores), rewrites
        those rows of ``pmf`` as point masses, and then every array is
        made read-only.
        """
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

        certain = np.zeros(ids.size, dtype=bool)
        # Exact (unquantized) score for certain tuples, NaN otherwise.
        exact_scores = np.full(ids.size, np.nan)
        if known is not None:
            positions, scores = known
            pmf[positions, :] = 0.0
            pmf[positions, grid.level_of(scores)] = 1.0
            certain[positions] = True
            exact_scores[positions] = scores
        cdf = np.clip(np.cumsum(pmf, axis=1), 0.0, 1.0)
        cdf[:, -1] = 1.0
        self.grid = grid
        (self.ids, self.pmf, self.cdf, self.certain,
         self.exact_scores) = _read_only(
            (ids, pmf, cdf, certain, exact_scores))

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
        """The position of ``frame_id``'s tuple (a scan of the ids:
        only audits and tests look frames up one at a time)."""
        found = np.flatnonzero(self.ids == int(frame_id))
        if not found.size:
            raise UncertainRelationError(
                f"frame {frame_id} not in relation")
        return int(found[0])

    def uncertain_positions(self) -> np.ndarray:
        return np.flatnonzero(~self.certain)

    def expected_scores(self) -> np.ndarray:
        """Per-tuple pmf means in score units (certain -> exact level)."""
        levels = self.grid.score_of(np.arange(self.grid.num_levels))
        return self.pmf @ levels

    def log_tables(self):
        """``(log F, F == 0, finite_sum, zero_count)`` of the tuples:
        what Topk-prob starts every query from.

        ``log F`` is the ``(N, L)`` log-cdf with 0 stored where
        ``F == 0`` (the mask says where); the two ``(L,)`` vectors are
        its column sums and the mask's over the uncertain rows. Built
        on first use and kept, read-only: callers copy the vectors. Two
        threads racing the first use both build the same values; either
        assignment may win.
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

    def memo(self, key, build):
        """``build()``, computed on the first use of ``key`` and kept
        with its arrays read-only.

        How a query starts from what D0 alone decides (DESIGN.md §3):
        ``build`` must be a pure function of the tuples. Kept under
        :meth:`log_tables`' rules (two threads racing a first use build
        equal values; either assignment may win).
        """
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        found = memo.get(key)
        if found is None:
            found = memo[key] = _read_only(build())
        return found

    def __getstate__(self):
        # The tuples only: the memos are rebuilt on first use.
        return {"grid": self.grid,
                **{name: getattr(self, name) for name in _ARRAYS}}

    def __setstate__(self, state):
        # A blob written before relations were values (format 6 still
        # reads it) holds writeable arrays and a frame-id dict: only
        # the fields are taken, read-only.
        self.grid = state["grid"]
        for name in _ARRAYS:
            setattr(self, name, _read_only(state[name]))

    def _clone(self, rows: np.ndarray) -> "UncertainRelation":
        """The tuples at ``rows`` (a boolean mask, order preserved).

        Takes rows of the already-validated fields: nothing is
        re-checked or re-accumulated (the constructor validates
        whatever is built from outside). The clone takes rows of this
        relation's :meth:`log_tables` and of every
        :meth:`level_columns` built so far, and starts without a
        :meth:`memo`.
        """
        clone = object.__new__(UncertainRelation)
        clone.grid = self.grid
        for name in _ARRAYS:
            setattr(clone, name, _read_only(getattr(self, name)[rows]))
        tables = self.log_tables()
        clone._log_tables = _with_sums(
            tables[0][rows], tables[1][rows], ~clone.certain)
        columns = self._columns
        if columns is not None:
            clone._columns = {
                level: _read_only(tuple(column[rows] for column in found))
                for level, found in dict(columns).items()}
        return clone


#: The tuples' arrays: with the grid, what a relation pickles.
_ARRAYS = ("ids", "pmf", "cdf", "certain", "exact_scores")


def _read_only(value):
    """``value`` with every array in it (through tuples) made
    read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    return value


def _with_sums(log_cdf: np.ndarray, zero: np.ndarray, uncertain: np.ndarray):
    """The :meth:`UncertainRelation.log_tables` tuple of these rows."""
    rows = uncertain[:, None]
    return _read_only((log_cdf, zero, (log_cdf * rows).sum(axis=0),
                       (zero & rows).sum(axis=0).astype(np.int64)))


def _level_columns(tables, level: int):
    """The :meth:`UncertainRelation.level_columns` tuple: a contiguous
    copy of column ``level`` of each ``(N, L)`` table."""
    return _read_only(tuple(
        np.ascontiguousarray(table[:, level]) for table in tables))


def _rows_in(
    relation: UncertainRelation, ranges: Sequence[Tuple[int, int]]
) -> np.ndarray:
    """Mask of the tuples whose frame id lies in any ``[lo, hi)`` range."""
    mask = np.zeros(relation.ids.size, dtype=bool)
    for lo, hi in ranges:
        mask |= (relation.ids >= int(lo)) & (relation.ids < int(hi))
    return mask


def restrict_relation(
    relation: UncertainRelation,
    ranges: Sequence[Tuple[int, int]],
) -> UncertainRelation:
    """Row-restrict a relation to frame ids inside any ``[lo, hi)`` range.

    The sliding-window primitive (DESIGN.md §13): row order, pmf/cdf
    rows, certainty flags and — crucially — the quantization grid are
    all preserved, so restricting a full-prefix relation is bitwise
    equal to building the window's rows directly on the same grid.
    Ranges that cover every tuple return ``relation`` itself — a
    windowed maintainer's relation is the window already.
    """
    mask = _rows_in(relation, ranges)
    return relation if mask.all() else relation._clone(mask)


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
    rows into it. Every array is read-only after that: a query keeps
    what it cleans in its own :class:`~repro.core.cleaner.TopKCleaner`,
    and a relation with more tuples certain is another build (an old
    relation's ``ids``, a copy of its ``pmf`` and its ``grid``, with
    the old and the new exact scores as ``known_scores``).
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
        # check; the constructor rewrites them as the known rows.
        extra = np.zeros((extra_ids.size, grid.num_levels))
        extra[:, 0] = 1.0
        pmf = np.vstack([pmf, extra])

    all_ids = np.concatenate([ids, extra_ids])
    # Each known frame's position, by one sort of the (distinct) ids.
    order = np.argsort(all_ids)
    return UncertainRelation(all_ids, pmf, grid, known=(
        order[np.searchsorted(all_ids, known_ids, sorter=order)],
        np.asarray(all_scores, dtype=np.float64)))

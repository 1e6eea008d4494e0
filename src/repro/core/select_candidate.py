"""Select-candidate: choosing the best frames to clean (Section 3.3.2).

Cleaning frame ``f`` yields an (unknown) new confidence ``X_f``; the
selector picks ``f* = argmax E[X_f]``. Equation 5's case analysis over
the revealed score ``s`` gives a closed form (Equation 6):

* ``s <= S_k``     — answer unchanged; the term telescopes to the
  current-confidence contribution ``F_f(S_k) * prod_{f' != f} F_f'(S_k)``;
* ``S_k < s <= S_p`` — ``f`` becomes the new K-th with threshold ``s``;
* ``s > S_p``      — the old penultimate becomes the threshold.

All products run over the *currently uncertain* tuples with ``f``
factored out, which :meth:`ConfidenceState.joint_cdf_excluding_level`
provides one level at a time in vectorized, zero-safe form.

To avoid computing ``E[X_f]`` for every uncertain frame, Equation 7
bounds it by ``p-hat + gamma * psi(f)`` with the frame-independent
``gamma = H_u(S_p)`` and sort-factor ``psi(f) = (1-F_f(S_k))/F_f(S_p)``.
Frames are scanned in descending *stale* psi order (Equation 8 — psi
only shrinks as ``S_k``/``S_p`` grow, so a stale psi is still an upper
bound) and the scan stops early once the bound falls below the current
batch's worst kept expectation. The stale order is refreshed on the
paper's schedule: every :data:`RESORT_EVERY` iterations during the first
:data:`RESORT_WARMUP` iterations, afterwards only when ``S_k`` or ``S_p``
change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .topk_prob import ConfidenceState
from .uncertain import UncertainRelation

#: Clamp for zero CDFs inside the psi sort key. Frames with
#: ``F_f(S_p) = 0`` certainly beat the penultimate score, so they sort
#: (correctly) to the very front of the scan order.
_TINY = 1e-300

#: Vectorized scan chunk.
_CHUNK = 512

#: What a scan holds before its first chunk (read-only, shared).
_NO_POSITIONS = np.zeros(0, dtype=np.int64)
_NO_VALUES = np.zeros(0)
_NO_POSITIONS.flags.writeable = _NO_VALUES.flags.writeable = False

#: The paper's re-sort schedule (Section 3.3.2): the stale psi order is
#: refreshed every ``RESORT_EVERY`` iterations for the first
#: ``RESORT_WARMUP``, afterwards only when ``S_k`` or ``S_p`` change.
RESORT_EVERY = 10
RESORT_WARMUP = 100


@dataclass
class SelectionStats:
    """Instrumentation: how much work the early-stopped scan did."""

    calls: int = 0
    frames_examined: int = 0
    frames_available: int = 0
    resorts: int = 0

    @property
    def examine_fraction(self) -> float:
        if self.frames_available == 0:
            return 0.0
        return self.frames_examined / self.frames_available


class CandidateSelector:
    """Early-stopping argmax-E[X_f] selector over uncertain tuples."""

    def __init__(self, relation: UncertainRelation, state: ConfidenceState):
        self.relation = relation
        self.state = state
        self.stats = SelectionStats()
        self._order: Optional[np.ndarray] = None
        self._stale_psi: Optional[np.ndarray] = None
        #: ``(positions, psi)`` of the last re-sort while ``_order``
        #: holds only its first chunk and the bound after it.
        self._unsorted: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._sort_iteration = -(10 ** 9)
        self._sort_levels: Tuple[int, int] = (-1, -1)

    # ------------------------------------------------------------------
    def _cdf_at(self, positions: np.ndarray, level: int) -> np.ndarray:
        """``F_f(level)`` for each position, read level-major."""
        return self.relation.level_columns(level)[2].take(positions)

    def psi(
        self, positions: np.ndarray, k_level: int, p_level: int
    ) -> np.ndarray:
        """Sort factor ``(1 - F_f(S_k)) / F_f(S_p)`` (Equation 7)."""
        survival = 1.0 - self._cdf_at(positions, k_level)
        denominator = np.maximum(self._cdf_at(positions, p_level), _TINY)
        return survival / denominator

    def expected_confidences(
        self,
        positions: np.ndarray,
        k_level: int,
        p_level: int,
    ) -> np.ndarray:
        """Vectorized Equation 6 for the given uncertain positions.

        One pass over the levels ``S_k..S_p`` (most selects see one: S_k
        and S_p share a level), each level's exclusion row used as soon
        as it is gathered.
        """
        positions = np.asarray(positions, dtype=np.int64)
        state = self.state
        excluding = state.joint_cdf_excluding_level(positions, k_level)

        # Case s <= S_k: the answer and threshold are unchanged.
        cdf_k = self._cdf_at(positions, k_level)
        expected = cdf_k * excluding

        # Case S_k < s <= S_p: f becomes the K-th with threshold s.
        cdf_p = cdf_k
        if p_level > k_level:
            weights = np.empty((positions.size, p_level - k_level))
            for column, level in enumerate(range(k_level + 1, p_level + 1)):
                state.joint_cdf_excluding_level(
                    positions, level, out=excluding)
                np.multiply(
                    self.relation.level_columns(level)[3].take(positions),
                    excluding, out=weights[:, column])
            # Summed along a C-contiguous (positions, levels) array, as
            # the reference sums it: NumPy adds a row pairwise from 8
            # terms on, so the layout fixes the rounding.
            expected += weights.sum(axis=1)
            cdf_p = self._cdf_at(positions, p_level)

        # Case s > S_p: the old penultimate becomes the threshold
        # (``excluding`` holds level S_p's row now).
        tail = 1.0 - cdf_p
        tail *= excluding
        expected += tail
        return expected

    # ------------------------------------------------------------------
    def _needs_resort(self, iteration: int, k_level: int, p_level: int) -> bool:
        if self._order is None:
            return True
        if iteration < RESORT_WARMUP:
            return iteration - self._sort_iteration >= RESORT_EVERY
        return (k_level, p_level) != self._sort_levels

    def _resort(self, iteration: int, k_level: int, p_level: int) -> None:
        """Re-rank the uncertain tuples by psi, descending, ties in
        position order. Most scans stop inside the first chunk, so only
        that chunk and the bound after it are ordered now (a partition
        picks them exactly as the full stable sort would);
        :meth:`_sort_rest` orders the rest if a scan goes further.
        Before anything is cleaned the ranking is D0's alone, kept on
        the relation for every query that starts on these levels."""
        def head():
            positions = np.flatnonzero(self.state.uncertain_mask)
            psi = self.psi(positions, k_level, p_level)
            first = top_indices(psi, _CHUNK + 1)
            return (positions[first], psi[first],
                    (positions, psi) if first.size < psi.size else None)

        key = ("resort", k_level, p_level)
        self._order, self._stale_psi, self._unsorted = \
            self.relation.memo(key, head) if self.state.pristine else head()
        self._sort_iteration = iteration
        self._sort_levels = (k_level, p_level)
        self.stats.resorts += 1

    def _sort_rest(self) -> Tuple[np.ndarray, np.ndarray]:
        """The whole scan order of the last re-sort."""
        positions, psi = self._unsorted
        order = np.argsort(-psi, kind="stable")
        self._order = positions[order]
        self._stale_psi = psi[order]
        self._unsorted = None
        return self._order, self._stale_psi

    # ------------------------------------------------------------------
    def select(
        self,
        iteration: int,
        k_level: int,
        p_level: int,
        batch_size: int,
        p_hat: float,
    ) -> np.ndarray:
        """Return up to ``batch_size`` positions with the highest E[X_f].

        ``p_hat`` is the current confidence, ``state.topk_prob(k_level)``,
        which the cleaning loop has already computed. Scans the
        stale-psi order with Equation 7/8 early stopping.
        """
        available = self.state.num_uncertain
        self.stats.calls += 1
        self.stats.frames_available += available
        if available == 0:
            return _NO_POSITIONS
        batch_size = min(batch_size, available)

        if self._needs_resort(iteration, k_level, p_level):
            self._resort(iteration, k_level, p_level)
        assert self._order is not None and self._stale_psi is not None

        gamma = self.state.joint_cdf(p_level)
        # The best ``batch_size`` frames examined so far, best first
        # (ties in scan order): all a later chunk can be ranked against.
        kept_pos, kept_exp = _NO_POSITIONS, _NO_VALUES
        examined = 0

        order = self._order
        stale_psi = self._stale_psi
        mask = self.state.uncertain_mask
        cursor = 0
        while cursor < order.size:
            if cursor and self._unsorted is not None:
                order, stale_psi = self._sort_rest()
            chunk = order[cursor:cursor + _CHUNK]
            cursor += _CHUNK
            chunk = chunk[mask.take(chunk)]
            if chunk.size == 0:
                continue
            expected = self.expected_confidences(chunk, k_level, p_level)
            examined += chunk.size
            if kept_pos.size:
                chunk = np.concatenate((kept_pos, chunk))
                expected = np.concatenate((kept_exp, expected))
            best = top_indices(expected, batch_size)
            kept_pos, kept_exp = chunk[best], expected[best]
            if examined >= batch_size and cursor < order.size:
                next_bound = p_hat + gamma * stale_psi.item(cursor)
                if next_bound <= kept_exp.item(-1):
                    break

        self.stats.frames_examined += examined
        return kept_pos


def top_indices(values: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` largest ``values`` (no NaN: E[X_f] and
    psi are finite), largest first, ties in index order:
    ``np.argsort(-values, kind="stable")[:count]``.

    A partition finds the ``count``-th key; only the candidates at or
    above it are stably sorted. They keep their index order, so ties at
    the cut resolve as the full sort resolves them. Array methods, not
    the ``np.`` wrappers: a scan calls this once per chunk.
    """
    keys = -values
    if count >= keys.size:
        return keys.argsort(kind="stable")[:count]
    cut = keys.copy()
    cut.partition(count - 1)
    candidates = (keys <= cut[count - 1]).nonzero()[0]
    return candidates[keys[candidates].argsort(kind="stable")[:count]]

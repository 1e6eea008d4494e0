"""Select-candidate: choosing the best frames to clean (Section 3.3.2).

Cleaning frame ``f`` yields an (unknown) new confidence ``X_f``; the
selector picks ``f* = argmax E[X_f]``. Equation 5's case analysis over
the revealed score ``s`` gives a closed form (Equation 6):

* ``s <= S_k``     — answer unchanged; the term telescopes to the
  current-confidence contribution ``F_f(S_k) * prod_{f' != f} F_f'(S_k)``;
* ``S_k < s <= S_p`` — ``f`` becomes the new K-th with threshold ``s``;
* ``s > S_p``      — the old penultimate becomes the threshold.

All products run over the *currently uncertain* tuples with ``f``
factored out, which :meth:`ConfidenceState.joint_cdf_excluding_levels`
provides in vectorized, zero-safe form.

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
        """Vectorized Equation 6 for the given uncertain positions."""
        positions = np.asarray(positions, dtype=np.int64)

        # One exclusion matrix over every level of the case analysis:
        # row 0 is S_k, the last row is S_p.
        excluding = self.state.joint_cdf_excluding_levels(
            positions, k_level, p_level)

        # Case s <= S_k: the answer and threshold are unchanged.
        cdf_k = self._cdf_at(positions, k_level)
        expected = cdf_k * excluding[0]

        # Case S_k < s <= S_p: f becomes the K-th with threshold s.
        if p_level > k_level:
            weights = np.empty_like(excluding[1:])
            for row, level in zip(weights, range(k_level + 1, p_level + 1)):
                self.relation.level_columns(level)[3].take(positions, out=row)
            # Summed along a C-contiguous (positions, levels) array, as
            # the reference sums it: NumPy adds a row pairwise from 8
            # terms on, so the layout fixes the rounding.
            weights *= excluding[1:]
            expected += weights.T.copy().sum(axis=1)

        # Case s > S_p: the old penultimate becomes the threshold.
        cdf_p = cdf_k if p_level == k_level \
            else self._cdf_at(positions, p_level)
        tail = 1.0 - cdf_p
        tail *= excluding[-1]
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
        :meth:`_sort_rest` orders the rest if a scan goes further."""
        positions = np.flatnonzero(self.state.uncertain_mask)
        psi = self.psi(positions, k_level, p_level)
        head = top_indices(psi, _CHUNK + 1)
        self._order = positions[head]
        self._stale_psi = psi[head]
        self._unsorted = (positions, psi) if head.size < psi.size else None
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
            return np.zeros(0, dtype=np.int64)
        batch_size = min(batch_size, available)

        if self._needs_resort(iteration, k_level, p_level):
            self._resort(iteration, k_level, p_level)
        assert self._order is not None and self._stale_psi is not None

        gamma = self.state.joint_cdf(p_level)
        # The best ``batch_size`` frames examined so far, best first
        # (ties in scan order): all a later chunk can be ranked against.
        kept_pos = np.zeros(0, dtype=np.int64)
        kept_exp = np.zeros(0)
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
                next_bound = p_hat + gamma * stale_psi[cursor]
                if next_bound <= kept_exp[-1]:
                    break

        self.stats.frames_examined += examined
        return kept_pos


def top_indices(values: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` largest ``values`` (no NaN: E[X_f] and
    psi are finite), largest first, ties in index order:
    ``np.argsort(-values, kind="stable")[:count]``.

    A partition finds the ``count``-th key; only the candidates at or
    above it are stably sorted. They keep their index order, so ties at
    the cut resolve as the full sort resolves them.
    """
    keys = -values
    if count >= keys.size:
        return np.argsort(keys, kind="stable")[:count]
    cut = np.partition(keys, count - 1)[count - 1]
    candidates = (keys <= cut).nonzero()[0]
    return candidates[np.argsort(keys[candidates], kind="stable")[:count]]

"""Topk-prob: incremental confidence computation (paper Section 3.3.1).

Given the certain-result condition, the confidence of the current
Top-K answer reduces to Equation 2:

    p-hat = prod over uncertain frames f of  Pr(S_f <= S_k)

where ``S_k`` is the K-th (threshold) certain score. The paper
accelerates this with two precomputed functions (Equation 3): the
per-frame CDF ``F_f`` and the joint CDF ``H(t)`` of all initially
uncertain frames, maintained incrementally as frames are cleaned.

:class:`ConfidenceState` implements exactly that in log space with
explicit zero tracking, so cleaning a frame is an ``O(L)`` update and
computing the confidence is ``O(1)`` — matching the paper's claim that
Topk-prob contributes <0.01% of runtime.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import UncertainRelationError
from .uncertain import UncertainRelation


class ConfidenceState:
    """Incrementally maintained joint CDF over the uncertain tuples.

    ``log_cdf[p, t]`` is ``log F_f(t)`` for the tuple at position ``p``
    (``-inf`` where ``F_f(t) = 0``). The joint CDF over *currently
    uncertain* tuples is tracked as a finite log-sum plus a per-level
    count of ``-inf`` contributions, so removals (cleanings) never
    divide by zero.
    """

    def __init__(self, relation: UncertainRelation):
        self.relation = relation
        with np.errstate(divide="ignore"):
            self.log_cdf = np.log(relation.cdf)
        self._neg_inf = np.isneginf(self.log_cdf)
        uncertain = ~relation.certain
        self._uncertain = uncertain.copy()
        finite = np.where(self._neg_inf, 0.0, self.log_cdf)
        self.finite_sum = (finite * uncertain[:, None]).sum(axis=0)
        self.zero_count = (
            self._neg_inf & uncertain[:, None]).sum(axis=0).astype(np.int64)

    # ------------------------------------------------------------------
    @property
    def num_uncertain(self) -> int:
        return int(self._uncertain.sum())

    @property
    def uncertain_mask(self) -> np.ndarray:
        """Boolean mask (by position) of still-uncertain tuples."""
        return self._uncertain

    def remove(self, position: int) -> None:
        """Remove a tuple from the joint CDF (it has been cleaned)."""
        if not self._uncertain[position]:
            raise UncertainRelationError(
                f"position {position} is not an uncertain tuple")
        row_inf = self._neg_inf[position]
        self.finite_sum -= np.where(row_inf, 0.0, self.log_cdf[position])
        self.zero_count -= row_inf.astype(np.int64)
        self._uncertain[position] = False

    def remove_many(self, positions: np.ndarray) -> None:
        """Remove a batch of cleaned tuples in one vectorized pass.

        Equivalent to calling :meth:`remove` per position (up to
        floating-point summation order in ``finite_sum``), but one
        numpy reduction per batch instead of one ``O(L)`` pass per
        tuple — the Phase 2 cleaning loop's hot path.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            return
        if positions.size != np.unique(positions).size:
            raise UncertainRelationError("batch positions must be unique")
        if not np.all(self._uncertain[positions]):
            raise UncertainRelationError(
                "batch contains tuples that are not uncertain")
        rows_inf = self._neg_inf[positions]
        rows_log = np.where(rows_inf, 0.0, self.log_cdf[positions])
        self.finite_sum -= rows_log.sum(axis=0)
        self.zero_count -= rows_inf.sum(axis=0)
        self._uncertain[positions] = False

    # ------------------------------------------------------------------
    def log_joint_cdf(self, level: int) -> float:
        """``log H_u(level)`` over currently uncertain tuples."""
        if self.zero_count[level] > 0:
            return float("-inf")
        return float(self.finite_sum[level])

    def joint_cdf(self, level: int) -> float:
        """``H_u(level) = prod_f F_f(level)`` (Equation 2's product)."""
        if self.num_uncertain == 0:
            return 1.0
        log_value = self.log_joint_cdf(level)
        return float(np.exp(log_value)) if np.isfinite(log_value) else 0.0

    def topk_prob(self, threshold_level: Optional[int]) -> float:
        """Confidence of the current answer (Equation 2 / 3).

        ``threshold_level`` is the grid level of ``S_k``; ``None`` means
        no K-certain-frames answer exists yet, so confidence is 0.
        """
        if threshold_level is None:
            return 0.0
        return self.joint_cdf(int(threshold_level))

    # ------------------------------------------------------------------
    def joint_cdf_excluding(
        self, positions: np.ndarray, level: int
    ) -> np.ndarray:
        """``prod_{f' != f} F_f'(level)`` for each position ``f``.

        Vectorized helper for Select-candidate: the joint CDF with one
        tuple factored out, valid even when that tuple's own CDF is 0.
        """
        positions = np.asarray(positions, dtype=np.int64)
        own_inf = self._neg_inf[positions, level]
        own_log = self.log_cdf[positions, level]
        effective_zeros = self.zero_count[level] - own_inf.astype(np.int64)
        log_excl = self.finite_sum[level] - np.where(own_inf, 0.0, own_log)
        return np.where(effective_zeros == 0, np.exp(log_excl), 0.0)

    def joint_cdf_excluding_levels(
        self, positions: np.ndarray, levels: np.ndarray
    ) -> np.ndarray:
        """:meth:`joint_cdf_excluding` over many levels at once.

        Returns a ``(num_positions, num_levels)`` matrix whose column
        ``j`` equals ``joint_cdf_excluding(positions, levels[j])`` —
        one fused pass for Select-candidate's Equation 6 case analysis
        instead of one call per grid level.
        """
        positions = np.asarray(positions, dtype=np.int64)
        levels = np.asarray(levels, dtype=np.int64)
        own_inf = self._neg_inf[positions[:, None], levels[None, :]]
        own_log = self.log_cdf[positions[:, None], levels[None, :]]
        effective_zeros = (
            self.zero_count[levels][None, :] - own_inf.astype(np.int64))
        log_excl = (
            self.finite_sum[levels][None, :]
            - np.where(own_inf, 0.0, own_log))
        return np.where(effective_zeros == 0, np.exp(log_excl), 0.0)

    # ------------------------------------------------------------------
    def topk_prob_direct(self, threshold_level: Optional[int]) -> float:
        """Recompute Equation 2 from scratch (reference / tests only)."""
        if threshold_level is None:
            return 0.0
        positions = np.flatnonzero(self._uncertain)
        if positions.size == 0:
            return 1.0
        return float(
            np.prod(self.relation.cdf[positions, int(threshold_level)]))

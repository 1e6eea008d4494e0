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

import math
from typing import Optional

import numpy as np

from ..errors import UncertainRelationError
from .uncertain import UncertainRelation, all_distinct


class ConfidenceState:
    """Incrementally maintained joint CDF over the uncertain tuples.

    ``log_cdf[p, t]`` is ``log F_f(t)`` for the tuple at position ``p``
    (0 where ``F_f(t) = 0``, which ``_neg_inf`` marks). The joint CDF
    over *currently uncertain* tuples is tracked as a finite log-sum
    plus a per-level count of ``-inf`` contributions, so removals
    (cleanings) never divide by zero.

    The two tables are the relation's :meth:`~UncertainRelation.
    log_tables` — derived once per Phase-1 entry and shared read-only
    by every query; only the two small vectors and the uncertain mask
    are this state's own. Rows are read while their tuple is
    uncertain, and Phase 2 never writes the relation, so the tables a
    state took stay valid for its whole run. A cleaned batch reads
    them by row; the Eq. 6 exclusion reads the relation's
    :meth:`~UncertainRelation.level_columns` instead.
    """

    def __init__(self, relation: UncertainRelation):
        self.relation = relation
        self.log_cdf, self._neg_inf, finite_sum, zero_count = \
            relation.log_tables()
        self.finite_sum = finite_sum.copy()
        self.zero_count = zero_count.copy()
        self._uncertain = ~relation.certain
        #: How many tuples are still uncertain (a maintained counter).
        self.num_uncertain = self._initial = int(self._uncertain.sum())

    @property
    def pristine(self) -> bool:
        """Whether nothing was removed yet: the uncertain tuples are
        D0's own."""
        return self.num_uncertain == self._initial

    # ------------------------------------------------------------------
    @property
    def uncertain_mask(self) -> np.ndarray:
        """Boolean mask (by position) of still-uncertain tuples."""
        return self._uncertain

    def remove_many(self, positions: np.ndarray) -> None:
        """Remove a batch of cleaned tuples in one vectorized pass.

        One numpy reduction per batch instead of one ``O(L)`` pass per
        tuple — the Phase 2 cleaning loop's hot path.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if not all_distinct(positions):
            raise UncertainRelationError("batch positions must be unique")
        self._remove_rows(positions)

    def _remove_rows(self, positions: np.ndarray) -> None:
        """:meth:`remove_many` for int64 ``positions`` the caller has
        already checked to be unique."""
        uncertain = self._uncertain
        if not np.logical_and.reduce(uncertain.take(positions)):
            raise UncertainRelationError(
                "batch contains tuples that are not uncertain")
        self.finite_sum -= np.add.reduce(self.log_cdf.take(positions, axis=0))
        self.zero_count -= np.add.reduce(self._neg_inf.take(positions, axis=0))
        uncertain[positions] = False
        self.num_uncertain -= positions.size

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
        return float(np.exp(log_value)) if math.isfinite(log_value) else 0.0

    def topk_prob(self, threshold_level: Optional[int]) -> float:
        """Confidence of the current answer (Equation 2 / 3).

        ``threshold_level`` is the grid level of ``S_k``; ``None`` means
        no K-certain-frames answer exists yet, so confidence is 0.
        """
        if threshold_level is None:
            return 0.0
        return self.joint_cdf(int(threshold_level))

    # ------------------------------------------------------------------
    def joint_cdf_excluding_level(
        self, positions: np.ndarray, level: int,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``prod_{f' != f} F_f'(level)`` for each position ``f``: the
        joint CDF with one tuple factored out, valid even when that
        tuple's own CDF is 0. Gathered from the level's contiguous
        :meth:`~UncertainRelation.level_columns`, into ``out`` if given.
        """
        if out is None:
            out = np.empty(len(positions))
        zeros = self.zero_count[level]
        if zeros > 1:  # a zero factor remains whoever is left out
            out.fill(0.0)
            return out
        log_cdf, zero = self.relation.level_columns(level)[:2]
        np.exp(self.finite_sum[level] - log_cdf.take(positions), out=out)
        own = zero.take(positions)
        # Nonzero only where the one zero factor is the tuple's own
        # (none: where the tuple has none).
        out[~own if zeros else own] = 0.0
        return out

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

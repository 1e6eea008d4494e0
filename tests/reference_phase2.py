"""Frozen Phase-2 loop: the reference the optimised one is pinned to.

This is ``repro.core``'s cleaning loop as it stood before PR 22 made a
warm query cost what its arithmetic costs — ``ConfidenceState`` taking
``np.log`` of the whole cdf matrix per query, ``_certain_topk``
re-sorting every certain tuple per iteration, ``select`` re-counting
and re-concatenating per chunk, ``_clean_positions`` validating the
batch twice — kept operation for operation (the ``reference_render.py``
precedent) so ``test_phase2_equivalence.py`` checks the running
Top-K, the shared log tables and the pruned scan against an independent
implementation rather than against themselves. It shares nothing with
``src/`` but :class:`~repro.core.uncertain.UncertainRelation`'s public
surface (``cdf`` / ``pmf`` / ``certain`` / ``exact_scores``),
``all_distinct``, ``Phase2Config`` and ``SelectionStats``. A library
relation is read-only, so the reference cleaner cleans its own
writable copy (:class:`_WritableRelation`, with the library's old
in-place ``mark_certain_many``). The
Select-candidate knobs the library fixed as constants live on here, in
:class:`SelectCandidateConfig`: the reference still runs the
exhaustive scan and any re-sort schedule.

Do not "optimise" this file: its value is that it does not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.config import Phase2Config
from repro.core.cleaner import Phase2Result
from repro.core.select_candidate import SelectionStats
from repro.core.uncertain import UncertainRelation, all_distinct
from repro.errors import (
    GuaranteeUnreachableError,
    QueryError,
    UncertainRelationError,
)

_TINY = 1e-300
_CHUNK = 512


@dataclass(frozen=True)
class SelectCandidateConfig:
    """Knobs of the Select-candidate algorithm (Section 3.3.2)."""

    #: Use the Eq-7/8 upper bound to early-stop the argmax scan.
    use_upper_bound: bool = True
    #: Re-sort the stale psi order every ``resort_every`` iterations for
    #: the first ``resort_warmup`` iterations (paper: every 10 for the
    #: first 100), afterwards only when S_k or S_p change.
    resort_every: int = 10
    resort_warmup: int = 100


class ReferenceConfidenceState:
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


class ReferenceSelector:
    """Early-stopping argmax-E[X_f] selector over uncertain tuples."""

    def __init__(
        self,
        relation: UncertainRelation,
        state: ReferenceConfidenceState,
        config: SelectCandidateConfig = SelectCandidateConfig(),
    ):
        self.relation = relation
        self.state = state
        self.config = config
        self.stats = SelectionStats()
        self._order: Optional[np.ndarray] = None
        self._stale_psi: Optional[np.ndarray] = None
        self._sort_iteration = -(10 ** 9)
        self._sort_levels: Tuple[int, int] = (-1, -1)

    # ------------------------------------------------------------------
    def psi(
        self, positions: np.ndarray, k_level: int, p_level: int
    ) -> np.ndarray:
        """Sort factor ``(1 - F_f(S_k)) / F_f(S_p)`` (Equation 7)."""
        cdf = self.relation.cdf
        survival = 1.0 - cdf[positions, k_level]
        denominator = np.maximum(cdf[positions, p_level], _TINY)
        return survival / denominator

    def expected_confidences(
        self,
        positions: np.ndarray,
        k_level: int,
        p_level: int,
    ) -> np.ndarray:
        """Vectorized Equation 6 for the given uncertain positions."""
        positions = np.asarray(positions, dtype=np.int64)
        cdf = self.relation.cdf
        pmf = self.relation.pmf

        # One fused exclusion matrix over every level of the case
        # analysis: column 0 is S_k, the last column is S_p.
        levels = np.arange(k_level, p_level + 1)
        excluding = self.state.joint_cdf_excluding_levels(positions, levels)

        # Case s <= S_k: the answer and threshold are unchanged.
        expected = cdf[positions, k_level] * excluding[:, 0]

        # Case S_k < s <= S_p: f becomes the K-th with threshold s.
        if p_level > k_level:
            weights = pmf[positions, k_level + 1:p_level + 1]
            expected = expected + (weights * excluding[:, 1:]).sum(axis=1)

        # Case s > S_p: the old penultimate becomes the threshold.
        tail = 1.0 - cdf[positions, p_level]
        expected = expected + tail * excluding[:, -1]
        return expected

    # ------------------------------------------------------------------
    def _needs_resort(self, iteration: int, k_level: int, p_level: int) -> bool:
        if self._order is None:
            return True
        if iteration < self.config.resort_warmup:
            return iteration - self._sort_iteration >= self.config.resort_every
        return (k_level, p_level) != self._sort_levels

    def _resort(self, iteration: int, k_level: int, p_level: int) -> None:
        positions = np.flatnonzero(self.state.uncertain_mask)
        psi = self.psi(positions, k_level, p_level)
        order = np.argsort(-psi, kind="stable")
        self._order = positions[order]
        self._stale_psi = psi[order]
        self._sort_iteration = iteration
        self._sort_levels = (k_level, p_level)
        self.stats.resorts += 1

    # ------------------------------------------------------------------
    def select(
        self,
        iteration: int,
        k_level: int,
        p_level: int,
        batch_size: int,
    ) -> np.ndarray:
        """Return up to ``batch_size`` positions with the highest E[X_f].

        Scans the stale-psi order with Equation 7/8 early stopping when
        ``config.use_upper_bound`` is set; otherwise evaluates every
        uncertain frame exactly (the ablation baseline).
        """
        available = np.flatnonzero(self.state.uncertain_mask)
        self.stats.calls += 1
        self.stats.frames_available += available.size
        if available.size == 0:
            return available
        batch_size = min(batch_size, available.size)

        if not self.config.use_upper_bound:
            expected = self.expected_confidences(available, k_level, p_level)
            best = np.argsort(-expected, kind="stable")[:batch_size]
            self.stats.frames_examined += available.size
            return available[best]

        if self._needs_resort(iteration, k_level, p_level):
            self._resort(iteration, k_level, p_level)
        assert self._order is not None and self._stale_psi is not None

        gamma = self.state.joint_cdf(p_level)
        p_hat = self.state.topk_prob(k_level)
        kept_pos: List[np.ndarray] = []
        kept_exp: List[np.ndarray] = []
        examined = 0

        order = self._order
        stale_psi = self._stale_psi
        mask = self.state.uncertain_mask
        cursor = 0
        while cursor < order.size:
            chunk = order[cursor:cursor + _CHUNK]
            chunk_psi = stale_psi[cursor:cursor + _CHUNK]
            cursor += _CHUNK
            alive = mask[chunk]
            chunk = chunk[alive]
            chunk_psi = chunk_psi[alive]
            if chunk.size == 0:
                continue
            expected = self.expected_confidences(chunk, k_level, p_level)
            examined += chunk.size
            kept_pos.append(chunk)
            kept_exp.append(expected)

            total = sum(arr.size for arr in kept_pos)
            if total >= batch_size and cursor < order.size:
                all_exp = np.concatenate(kept_exp)
                kth_best = np.partition(all_exp, -batch_size)[-batch_size]
                next_bound = p_hat + gamma * stale_psi[cursor]
                if next_bound <= kth_best:
                    break

        self.stats.frames_examined += examined
        all_pos = np.concatenate(kept_pos)
        all_exp = np.concatenate(kept_exp)
        best = np.argsort(-all_exp, kind="stable")[:batch_size]
        return all_pos[best]


class _WritableRelation:
    """A relation's tuples on writable arrays, cleaned in place."""

    def __init__(self, relation: UncertainRelation):
        self.grid = relation.grid
        self.ids = relation.ids.copy()
        self.pmf = relation.pmf.copy()
        self.cdf = relation.cdf.copy()
        self.certain = relation.certain.copy()
        self.exact_scores = relation.exact_scores.copy()

    def __len__(self) -> int:
        return int(self.ids.size)

    @property
    def num_certain(self) -> int:
        return int(self.certain.sum())

    def uncertain_positions(self) -> np.ndarray:
        return np.flatnonzero(~self.certain)

    def expected_scores(self) -> np.ndarray:
        """Per-tuple pmf means in score units (certain -> exact level)."""
        levels = self.grid.score_of(np.arange(self.grid.num_levels))
        return self.pmf @ levels

    def mark_certain_many(
        self, positions: np.ndarray, scores: np.ndarray
    ) -> np.ndarray:
        """Clean a batch of tuples in one vectorized pass: the pmf /
        cdf rows are rewritten with a single fancy-indexed assignment
        each. Returns the quantized levels of the observed scores."""
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
        levels = self.grid.level_of(scores)
        self.pmf[positions, :] = 0.0
        self.pmf[positions, levels] = 1.0
        self.cdf[positions, :] = (
            np.arange(self.grid.num_levels)[None, :] >= levels[:, None])
        self.certain[positions] = True
        self.exact_scores[positions] = scores
        return levels


class ReferenceCleaner:
    """Ground-truth-in-the-loop uncertain Top-K processor, on its own
    writable copy of ``relation``."""

    def __init__(
        self,
        relation: UncertainRelation,
        clean_fn,
        config: Phase2Config = Phase2Config(),
        *,
        cost_model=None,
    ):
        self.relation = relation = _WritableRelation(relation)
        self.clean_fn = clean_fn
        self.config = config
        self.cost_model = cost_model
        self.state = ReferenceConfidenceState(relation)
        self.selector = ReferenceSelector(
            relation, self.state)
        self.cleaned = 0

    # ------------------------------------------------------------------
    def _clean_positions(self, positions: np.ndarray) -> None:
        positions = np.asarray(positions, dtype=np.int64)
        ids = [int(self.relation.ids[p]) for p in positions]
        scores = np.asarray(self.clean_fn(ids), dtype=np.float64)
        if scores.shape != (len(ids),):
            raise QueryError(
                f"clean_fn returned shape {scores.shape} for {len(ids)} ids")
        # One vectorized pass per batch over the joint CDF and the
        # relation instead of one O(L) update per tuple.
        self.state.remove_many(positions)
        self.relation.mark_certain_many(positions, scores)
        self.cleaned += len(ids)

    def _certain_topk(self, k: int) -> Tuple[np.ndarray, int, int]:
        """Current answer positions plus (S_k, S_p) grid levels.

        Ties break toward lower tuple id, matching the exact-result
        definition used by the metrics.
        """
        certain_positions = np.flatnonzero(self.relation.certain)
        if certain_positions.size < k:
            raise QueryError("fewer than K certain tuples")
        scores = self.relation.exact_scores[certain_positions]
        ids = self.relation.ids[certain_positions]
        order = np.lexsort((ids, -scores))
        top = certain_positions[order[:k]]
        levels = self.relation.grid.level_of(self.relation.exact_scores[top])
        k_level = int(levels[-1])
        p_level = int(levels[-2]) if k >= 2 else self.relation.grid.max_level
        return top, k_level, p_level

    def _bootstrap(self, k: int) -> None:
        """Clean highest-expected-score frames until K are certain."""
        if len(self.relation) < k:
            raise GuaranteeUnreachableError(
                f"relation has {len(self.relation)} tuples, need K={k}")
        while self.relation.num_certain < k:
            missing = k - self.relation.num_certain
            uncertain = self.relation.uncertain_positions()
            expected = self.relation.expected_scores()[uncertain]
            take = min(max(missing, self.config.batch_size), uncertain.size)
            best = np.argsort(-expected, kind="stable")[:take]
            self._clean_positions(uncertain[best])

    # ------------------------------------------------------------------
    def run(self, k: int, thres: float) -> Phase2Result:
        """Clean until the Top-K confidence reaches ``thres``."""
        if k < 1:
            raise QueryError("K must be >= 1")
        if not 0.0 < thres <= 1.0:
            raise QueryError("thres must be in (0, 1]")

        self._bootstrap(k)
        trace: List[float] = []
        iteration = 0
        while True:
            top, k_level, p_level = self._certain_topk(k)
            confidence = self.state.topk_prob(k_level)
            trace.append(confidence)
            if confidence >= thres or self.state.num_uncertain == 0:
                answer_ids = [int(self.relation.ids[p]) for p in top]
                answer_scores = [
                    float(self.relation.exact_scores[p]) for p in top]
                return Phase2Result(
                    answer_ids=answer_ids,
                    answer_scores=answer_scores,
                    confidence=confidence,
                    iterations=iteration,
                    cleaned=self.cleaned,
                    confidence_trace=trace,
                    selection_stats=self.selector.stats,
                )
            candidates = self.selector.select(
                iteration, k_level, p_level, self.config.batch_size)
            if candidates.size == 0:  # pragma: no cover - defensive
                raise GuaranteeUnreachableError(
                    "no uncertain tuples left but confidence below thres")
            self._clean_positions(candidates)
            iteration += 1

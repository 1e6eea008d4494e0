"""Phase 2: Top-K processing via online uncertain data cleaning.

Starting from the uncertain relation D0, the cleaner iterates:

1. extract the Top-K of the *certain* tuples (the certain-result
   condition) and compute its confidence with Topk-prob;
2. if the confidence reaches ``thres``, stop;
3. otherwise Select-candidate picks the batch of frames whose cleaning
   maximizes the expected next confidence, the oracle reveals their
   exact scores (batch inference, paper Section 3.5), and the joint CDF
   is updated incrementally.

A bootstrap stage handles the corner where fewer than K tuples are
certain yet (possible with tiny training samples): frames are cleaned
in descending expected score until a K-sized certain answer exists.

The relation is D0 as Phase 1 left it, shared by every query of a
session and never written here (paper Section 3.3 keeps D0 fixed too):
what a query reveals lives in the cleaner, beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..config import Phase2Config
from ..errors import (
    GuaranteeUnreachableError,
    OracleError,
    QueryError,
    UncertainRelationError,
)
from ..trace import span as trace_span
from .select_candidate import CandidateSelector, SelectionStats
from .topk_prob import ConfidenceState
from .uncertain import UncertainRelation

#: Signature of the cleaning callback: tuple ids -> exact scores.
CleanFn = Callable[[Sequence[int]], np.ndarray]


@dataclass
class Phase2Result:
    """Outcome of the cleaning loop."""

    #: Tuple ids of the answer, best score first.
    answer_ids: List[int]
    #: Exact oracle scores aligned with ``answer_ids``.
    answer_scores: List[float]
    #: Confidence p-hat of the answer (>= thres on success).
    confidence: float
    #: Number of Select-candidate iterations run.
    iterations: int
    #: Number of tuples cleaned during Phase 2 (excl. Phase 1 labels).
    cleaned: int
    #: Confidence trace, one entry per iteration.
    confidence_trace: List[float] = field(default_factory=list)
    #: Scan-work instrumentation from the selector.
    selection_stats: Optional[SelectionStats] = None


class TopKCleaner:
    """Ground-truth-in-the-loop uncertain Top-K processor.

    Reads ``relation`` and never writes it. This query's cleaning state
    sits beside it: the joint CDF's uncertain mask (``state``) and the
    exact scores.
    """

    def __init__(
        self,
        relation: UncertainRelation,
        clean_fn: CleanFn,
        config: Phase2Config = Phase2Config(),
        *,
        cost_model=None,
    ):
        self.relation = relation
        self.clean_fn = clean_fn
        self.config = config
        self.cost_model = cost_model
        self.state = ConfidenceState(relation)
        self.selector = CandidateSelector(relation, self.state)
        self.cleaned = 0
        #: Exact score per position: D0's certain tuples plus every
        #: tuple this query cleaned (NaN elsewhere).
        self.exact_scores = relation.exact_scores.copy()
        #: Positions of the certain Top-K, best first, and its (S_k,
        #: S_p) grid levels — ``None`` until the bootstrap has made K
        #: tuples certain.
        self._answer: Optional[Tuple[np.ndarray, int, int]] = None

    @property
    def certain(self) -> np.ndarray:
        """Mask of the tuples this query knows exactly."""
        return ~self.state.uncertain_mask

    @property
    def num_certain(self) -> int:
        return len(self.relation) - self.state.num_uncertain

    # ------------------------------------------------------------------
    def _clean_positions(self, positions: np.ndarray) -> None:
        """One validated batch update of the query's state and Top-K:
        everything is checked before anything is written."""
        positions = np.asarray(positions, dtype=np.int64)
        ids = self.relation.ids.take(positions).tolist()
        if len(set(ids)) != len(ids):
            raise UncertainRelationError("batch positions must be unique")
        scores = np.asarray(self.clean_fn(ids), dtype=np.float64)
        if scores.shape != (len(ids),):
            raise QueryError(
                f"clean_fn returned shape {scores.shape} for {len(ids)} ids")
        values = scores.tolist()
        if not all(map(math.isfinite, values)):
            raise OracleError(
                f"clean_fn returned non-finite scores {values} "
                f"for ids {ids}")
        # One vectorized pass per batch over the joint CDF instead of
        # one O(L) update per tuple.
        self.state._remove_rows(positions)
        self.exact_scores[positions] = scores
        self.cleaned += len(ids)
        if self._answer is not None:
            # The batch changes the kept K only if one of its tuples
            # beats the K-th (usually none does).
            top = self._answer[0]
            kth = (self.exact_scores.item(top[-1]),
                   -self.relation.ids.item(top[-1]))
            if any((score, -frame) > kth
                   for score, frame in zip(values, ids)):
                self._answer = self._answer_of(self._best(
                    np.concatenate((top, positions)), top.size))

    def _best(self, positions: np.ndarray, k: int) -> np.ndarray:
        """The ``k`` best of the certain ``positions``, best first.

        Ties break toward lower tuple id, matching the exact-result
        definition used by the metrics. Ids are unique, so this is a
        total order: merging a batch into the kept K picks exactly the
        K a full sort of every certain tuple would.
        """
        order = np.lexsort((
            self.relation.ids[positions], -self.exact_scores[positions]))
        return positions[order[:k]]

    def _answer_of(self, top: np.ndarray) -> Tuple[np.ndarray, int, int]:
        """Answer positions ``top`` plus their (S_k, S_p) grid levels:
        only the last two answer scores are ever quantized, and only
        when the answer changes.

        The bootstrap ends with the one full sort; from then on every
        cleaned batch is merged into the kept K.
        """
        grid = self.relation.grid
        levels = grid.level_of(self.exact_scores.take(top[-2:])).tolist()
        return top, levels[-1], levels[0] if top.size >= 2 else grid.max_level

    def _bootstrap(self, k: int) -> None:
        """Clean highest-expected-score frames until K are certain."""
        if len(self.relation) < k:
            raise GuaranteeUnreachableError(
                f"relation has {len(self.relation)} tuples, need K={k}")
        while self.num_certain < k:
            missing = k - self.num_certain
            uncertain = np.flatnonzero(self.state.uncertain_mask)
            expected = self.relation.expected_scores()[uncertain]
            take = min(max(missing, self.config.batch_size), uncertain.size)
            best = np.argsort(-expected, kind="stable")[:take]
            self._clean_positions(uncertain[best])

        def answer():
            return self._answer_of(
                self._best(np.flatnonzero(self.certain), k))

        # With nothing cleaned the answer is D0's own: kept on the
        # relation for every query that asks this K.
        self._answer = self.relation.memo(("bootstrap", k), answer) \
            if self.state.pristine else answer()

    # ------------------------------------------------------------------
    def run(self, k: int, thres: float) -> Phase2Result:
        """Clean until the Top-K confidence reaches ``thres``."""
        if k < 1:
            raise QueryError("K must be >= 1")
        if not 0.0 < thres <= 1.0:
            raise QueryError("thres must be in (0, 1]")

        with trace_span(
                "bootstrap", category="phase2",
                ledger=self.cost_model) as boot:
            before = self.cleaned
            self._bootstrap(k)
            if boot is not None:
                boot.set(cleaned=self.cleaned - before)
        trace: List[float] = []
        iteration = 0
        while True:
            with trace_span(
                    "iteration", category="phase2",
                    ledger=self.cost_model) as step:
                top, k_level, p_level = self._answer
                confidence = self.state.topk_prob(k_level)
                trace.append(confidence)
                if step is not None:
                    step.set(iteration=iteration, confidence=confidence)
                if confidence >= thres or self.state.num_uncertain == 0:
                    answer_ids = [int(self.relation.ids[p]) for p in top]
                    answer_scores = [
                        float(self.exact_scores[p]) for p in top]
                    return Phase2Result(
                        answer_ids=answer_ids,
                        answer_scores=answer_scores,
                        confidence=confidence,
                        iterations=iteration,
                        cleaned=self.cleaned,
                        confidence_trace=trace,
                        selection_stats=self.selector.stats,
                    )
                with trace_span("select", category="phase2"):
                    candidates = self.selector.select(
                        iteration, k_level, p_level, self.config.batch_size,
                        confidence)
                if candidates.size == 0:  # pragma: no cover - defensive
                    raise GuaranteeUnreachableError(
                        "no uncertain tuples left but confidence below thres")
                self._clean_positions(candidates)
                if step is not None:
                    step.set(cleaned=int(candidates.size))
            iteration += 1

"""Result-quality metrics (paper Section 4, "Evaluation Metrics").

Given a returned Top-K answer and the exact per-item ground-truth
scores, the paper reports:

* **precision** — the fraction of returned items that belong to the
  exact Top-K. Scores tie heavily (counts are small integers), so an
  item is counted correct when its true score reaches the K-th highest
  true score, i.e. when it belongs to *some* exact Top-K set. (Recall
  equals precision because both sets have K elements.)
* **rank distance** — normalized Spearman footrule between each
  returned item's position and its true (competition) rank, normalized
  by the worst-case displacement ``K * (n - 1)`` (an item can land at
  most ``n - 1`` places from its true rank).
* **score error** — mean absolute difference between the true scores of
  the returned items and the true Top-K scores, compared rank by rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class QualityMetrics:
    """The paper's three answer-quality metrics for one query."""

    precision: float
    rank_distance: float
    score_error: float

    def as_row(self) -> str:
        return (
            f"precision={self.precision:.3f} "
            f"rank_dist={self.rank_distance:.5f} "
            f"score_err={self.score_error:.4f}"
        )


def kth_highest(true_scores: np.ndarray, k: int) -> float:
    """The K-th highest ground-truth score (the exact threshold)."""
    true_scores = np.asarray(true_scores, dtype=np.float64)
    if not 1 <= k <= true_scores.size:
        raise ConfigurationError(
            f"k={k} out of range for {true_scores.size} items")
    return float(np.partition(true_scores, -k)[-k])


def precision_at_k(
    answer_ids: Sequence[int],
    true_scores: np.ndarray,
    k: int,
    *,
    tolerance: float = 0.0,
) -> float:
    """Fraction of the answer belonging to an exact Top-K (tie-aware).

    ``tolerance`` widens the tie band: an item whose true score is
    within ``tolerance`` of the K-th highest also counts. Continuous
    UDFs operate at their quantization step's resolution (Section 3.2),
    so the harness passes the step as the tolerance there; counting
    queries use the strict default of 0.
    """
    if len(answer_ids) == 0:
        return 0.0
    if tolerance < 0:
        raise ConfigurationError("tolerance must be >= 0")
    threshold = kth_highest(true_scores, k) - tolerance
    true_scores = np.asarray(true_scores, dtype=np.float64)
    hits = [true_scores[int(i)] >= threshold for i in answer_ids]
    return float(np.mean(hits))


def rank_distance(
    answer_ids: Sequence[int], true_scores: np.ndarray, k: int
) -> float:
    """Normalized footrule between answer positions and true ranks.

    True rank uses competition ranking resolved in the answer's favour:
    an item's rank is the number of items with *strictly* greater true
    score (0-based), so ties never penalize the answer.
    """
    if len(answer_ids) == 0:
        return 1.0
    true_scores = np.asarray(true_scores, dtype=np.float64)
    n = true_scores.size
    sorted_desc = np.sort(true_scores)[::-1]
    displacement = 0.0
    for position, frame in enumerate(answer_ids):
        score = true_scores[int(frame)]
        best_rank = int(np.searchsorted(-sorted_desc, -score))
        # Ties: the most favourable rank within [best_rank, ...] that
        # does not precede the answer position.
        rank = max(best_rank, 0)
        displacement += max(0, rank - position) + max(0, position - (
            int(np.searchsorted(-sorted_desc, -score, side="right")) - 1))
    worst = len(answer_ids) * max(n - 1, 1)
    return float(displacement / worst)


def score_error(
    answer_scores_true: Sequence[float], true_scores: np.ndarray, k: int
) -> float:
    """Mean |true score of answer at rank i - exact score at rank i|."""
    if len(answer_scores_true) == 0:
        return float("nan")
    true_scores = np.asarray(true_scores, dtype=np.float64)
    exact = np.sort(true_scores)[::-1][:k]
    got = np.asarray(answer_scores_true, dtype=np.float64)
    m = min(exact.size, got.size)
    return float(np.mean(np.abs(np.sort(got[:m])[::-1] - exact[:m])))


def evaluate_answer(
    answer_ids: Sequence[int],
    true_scores: np.ndarray,
    k: int,
    *,
    tolerance: float = 0.0,
) -> QualityMetrics:
    """All three metrics for an answer over item-indexed true scores."""
    true_scores = np.asarray(true_scores, dtype=np.float64)
    answer_true = [float(true_scores[int(i)]) for i in answer_ids]
    return QualityMetrics(
        precision=precision_at_k(
            answer_ids, true_scores, k, tolerance=tolerance),
        rank_distance=rank_distance(answer_ids, true_scores, k),
        score_error=score_error(answer_true, true_scores, k),
    )

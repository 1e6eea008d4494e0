"""Scoring-function (UDF) protocol and the oracle wrapper.

The paper's UDF contract (Figure 3) is a Python callable that takes
frames and returns their *oracle* scores. :class:`ScoringFunction`
captures that plus the metadata Everest needs to build the uncertain
relation:

* ``quantization_step`` — ``None`` for counting UDFs (integer support),
  otherwise the user-supplied step (paper Section 3.2). It is the one
  grid step: every relation built for the UDF quantizes at it;
* ``score_floor`` — the smallest possible score (0 for counts).

Both are checked at construction, so a bad step is refused before any
label is bought.

:class:`Oracle` wraps a scoring function with cost accounting: every
invocation charges the simulated per-frame latency to a
:class:`~repro.oracle.cost.CostModel` and counts calls, which is what
the speedup evaluation measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from ..errors import (
    ConfigurationError, OracleBudgetExceededError, OracleError)
from ..trace import add_event
from ..video.frame import Frame
from ..video.synthetic import SyntheticVideo
from .cost import CostModel


@dataclass(frozen=True)
class ScoringFunction:
    """A user-defined scoring function (paper Figure 3).

    Attributes
    ----------
    name:
        Human-readable UDF name (e.g. ``"count[car]"``).
    score_frames:
        Callable mapping a list of :class:`Frame` to a float array of
        oracle scores.
    cost_key:
        Ledger key whose per-unit latency this UDF charges per frame.
    quantization_step:
        ``None`` for integer-valued scores (counting); otherwise the
        discretization step for the uncertain relation.
    score_floor:
        Smallest possible score (used as the quantization origin).
    """

    name: str
    score_frames: Callable[[List[Frame]], np.ndarray]
    cost_key: str = "oracle_infer"
    quantization_step: Optional[float] = None
    score_floor: float = 0.0
    #: Optional fast path returning the exact score of *every* frame of
    #: a video at once. Used only by the evaluation harness to compute
    #: ground-truth metrics without paying per-frame Frame construction;
    #: the query pipeline never calls it.
    exact_scores_fn: Optional[Callable[["SyntheticVideo"], np.ndarray]] = None

    def __post_init__(self) -> None:
        step = self.quantization_step
        if step is not None and not (np.isfinite(step) and step > 0):
            raise ConfigurationError(
                f"{self.name}: quantization_step must be None or a finite "
                f"number > 0, got {step!r}")
        if not np.isfinite(self.score_floor):
            raise ConfigurationError(
                f"{self.name}: score_floor must be finite, "
                f"got {self.score_floor!r}")

    @property
    def integer_valued(self) -> bool:
        return self.quantization_step is None

    @property
    def step(self) -> float:
        """The effective quantization step (1.0 for counting UDFs)."""
        return 1.0 if self.quantization_step is None else self.quantization_step

    def __call__(self, frames: List[Frame]) -> np.ndarray:
        """The frames' scores — the one boundary every oracle scores
        through, so a ``NaN`` / ``inf`` is refused here, before any
        score cache, relation or training set can take it in."""
        scores = np.asarray(self.score_frames(frames), dtype=np.float64)
        if not np.isfinite(scores).all():
            bad = [frame.index for frame, score in zip(frames, scores.ravel())
                   if not np.isfinite(score)]
            raise OracleError(
                f"{self.name} returned non-finite scores for frames {bad}")
        return scores


class Oracle:
    """Accurate but slow scorer with cost and budget accounting."""

    def __init__(
        self,
        scoring: ScoringFunction,
        cost_model: Optional[CostModel] = None,
        *,
        budget: Optional[int] = None,
        cost_key: Optional[str] = None,
    ):
        self.scoring = scoring
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.budget = budget
        #: Ledger key charged per frame; defaults to the UDF's own key.
        #: The engine overrides it to attribute labelling vs confirming
        #: work to separate Table 8 columns.
        self.cost_key = cost_key or scoring.cost_key
        self.calls = 0

    @property
    def name(self) -> str:
        return self.scoring.name

    def score(
        self, video: SyntheticVideo, indices: Sequence[int]
    ) -> np.ndarray:
        """Oracle-score the given frames, charging latency per frame.

        Raises :class:`OracleBudgetExceededError` when an invocation
        budget was set and would be exceeded.
        """
        indices = list(indices)
        if self.budget is not None and self.calls + len(indices) > self.budget:
            raise OracleBudgetExceededError(self.budget)
        self.calls += len(indices)
        self.cost_model.charge(self.cost_key, len(indices))
        add_event(
            "oracle_confirm", frames=len(indices), fresh=len(indices),
            cached=0, cost_key=self.cost_key)
        return self.scoring(video.frames(indices))


def exact_scores(scoring: ScoringFunction, video: SyntheticVideo) -> np.ndarray:
    """Ground-truth scores of every frame, for metrics only (no cost).

    Uses the UDF's fast path when available, otherwise scores every
    frame without charging the ledger.
    """
    if scoring.exact_scores_fn is not None:
        return np.asarray(scoring.exact_scores_fn(video), dtype=np.float64)
    return scoring(video.frames(range(len(video))))

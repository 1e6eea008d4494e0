"""Shared memoization of revealed exact scores.

Oracle answers are immutable facts about frames: once a frame's exact
score has been revealed — as a Phase-1 label or a Phase-2
confirmation — revealing it again costs nothing but latency.
:class:`ScoreCache` memoizes those revelations and
:class:`CachingOracle` is an :class:`~repro.oracle.base.Oracle` that
consults the cache before paying for a physical UDF invocation, while
charging its cost ledger and counting calls exactly as the base oracle
would. Reports produced through a caching oracle are therefore
bit-identical to uncached runs; only the *physical* work shrinks.

Every session confirms through one: a plain session through its own,
so a repeated or overlapping query re-scores nothing it already
confirmed; a stream through the cache its label oracle and
subscriptions share. The query service promotes it to service
scope: one cache per (video, UDF) artifact group, shared by every
concurrent query over that group, so one query's cleaned tuples
become every later query's warm start (DESIGN.md §8). A revealed
score never changes, so the cache only ever grows: it is an
append-only memo whose insertion order is its log, which lets the
process lane send a pool worker only the entries past a position
(:meth:`ScoreCache.since`). It is thread-safe — concurrent access can
change which invocations are physical, never what any query answers
or charges.
"""

from __future__ import annotations

import threading
from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import OracleBudgetExceededError
from ..trace import add_event
from .base import Oracle
from .cost import CostModel


class ScoreCache:
    """An append-only memo of revealed exact frame scores.

    Keyed by frame id; scores are deterministic per frame, so an entry
    never changes and is never dropped. The dict's insertion order is
    the memo's log: :meth:`since` reads the entries past a position.
    All operations take an internal lock so service worker threads can
    share one instance.
    """

    def __init__(self, scores: Optional[Dict[int, float]] = None):
        self._lock = threading.Lock()
        self._scores: Dict[int, float] = {}
        self.merge((scores or {}).items())

    def __len__(self) -> int:
        return len(self._scores)

    def __contains__(self, frame: int) -> bool:
        with self._lock:
            return int(frame) in self._scores

    def get(self, frame: int) -> float:
        with self._lock:
            return self._scores[int(frame)]

    def lookup(self, frames: Iterable[int]) -> Dict[int, float]:
        """The cached subset of ``frames`` (ints), read under one
        lock."""
        with self._lock:
            scores = self._scores
            return {frame: scores[frame] for frame in frames
                    if frame in scores}

    def merge(self, items: Iterable[Tuple[int, float]]) -> None:
        """Fold ``(frame, score)`` pairs in under one lock; a frame
        already held keeps its place and its score."""
        with self._lock:
            scores = self._scores
            for frame, score in items:
                scores.setdefault(int(frame), float(score))

    def since(
        self, position: int,
    ) -> Tuple[List[Tuple[int, float]], int]:
        """``(entries, new position)``: the entries inserted at or
        after ``position``, in insertion order, and the memo's length
        when they were read."""
        with self._lock:
            scores = self._scores
            return list(islice(scores.items(), position, None)), len(scores)

    # -- pickling (streaming checkpoints persist the cache) ------------
    def __getstate__(self):
        with self._lock:
            return {"scores": dict(self._scores)}

    def __setstate__(self, state):
        # A checkpoint written while the memo could still be bounded
        # also carries its bound and eviction count; only the scores
        # are read.
        self._lock = threading.Lock()
        self._scores = {
            int(k): float(v) for k, v in state["scores"].items()}


class CachingOracle(Oracle):
    """An :class:`~repro.oracle.base.Oracle` that memoizes revelations.

    Charging, call counting, and budget enforcement are identical to
    the base oracle — a query's ledger and
    :class:`~repro.core.result.QueryReport.oracle_calls` must match an
    uncached run's exactly. Only the *physical* UDF invocation is
    skipped for frames already in the cache; ``fresh_calls`` counts the
    misses and ``fresh_scores`` holds this oracle's own revelations
    (what a pool worker ships back to the service-scope cache).
    """

    def __init__(
        self,
        scoring,
        cost_model: Optional[CostModel] = None,
        *,
        cache: ScoreCache,
        budget: Optional[int] = None,
        cost_key: Optional[str] = None,
    ):
        super().__init__(
            scoring, cost_model, budget=budget, cost_key=cost_key)
        self.cache = cache
        self.fresh_calls = 0
        self.fresh_scores: Dict[int, float] = {}

    def score(self, video, indices: Sequence[int]) -> np.ndarray:
        indices = [int(i) for i in indices]
        if self.budget is not None and \
                self.calls + len(indices) > self.budget:
            raise OracleBudgetExceededError(self.budget)
        self.calls += len(indices)
        self.cost_model.charge(self.cost_key, len(indices))
        # Membership is decided once, up front: a concurrent query may
        # add a frame between this read and the store below. Most warm
        # batches are held whole.
        known = self.cache.lookup(indices)
        missing = []
        if len(known) < len(indices):
            seen = set()
            missing = [
                i for i in indices
                if i not in known and not (i in seen or seen.add(i))
            ]
        if missing:
            # Scored before anything is stored: a refused batch (a
            # non-finite score) leaves no trace in the cache.
            revealed = dict(zip(
                missing, map(float, self.scoring(video.frames(missing)))))
            known.update(revealed)
            self.fresh_scores.update(revealed)
            self.cache.merge(revealed.items())
            self.fresh_calls += len(missing)
        add_event(
            "oracle_confirm", frames=len(indices), fresh=len(missing),
            cached=len(indices) - len(missing), cost_key=self.cost_key)
        return np.fromiter(
            map(known.__getitem__, indices), np.float64, len(indices))

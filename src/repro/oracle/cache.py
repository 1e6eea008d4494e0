"""Shared memoization of revealed exact scores.

Oracle answers are immutable facts about frames: once a frame's exact
score has been revealed — as a Phase-1 label, a Phase-2 confirmation,
or a drift audit — revealing it again costs nothing but latency.
:class:`ScoreCache` memoizes those revelations and
:class:`CachingOracle` is an :class:`~repro.oracle.base.Oracle` that
consults the cache before paying for a physical UDF invocation, while
charging its cost ledger and counting calls exactly as the base oracle
would. Reports produced through a caching oracle are therefore
bit-identical to uncached runs; only the *physical* work shrinks.

Every session confirms through one: a plain session through its own,
so a repeated or overlapping query re-scores nothing it already
confirmed; a stream through the cache its label oracle, drift auditor
and subscriptions share. The query service promotes it to service
scope: one bounded cache per (video, UDF) artifact group, shared by
every concurrent query over that group, so one query's cleaned tuples
become every later query's warm start (DESIGN.md §8). Service-scope caches
are bounded (``max_entries``, LRU) and thread-safe — eviction and
concurrent access can change which invocations are physical, never
what any query answers or charges.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, OracleBudgetExceededError
from ..trace import add_event
from .base import Oracle
from .cost import CostModel


class ScoreCache:
    """A memo of revealed exact frame scores, optionally bounded.

    Keyed by frame id; scores are deterministic per frame, so an entry
    never invalidates. With ``max_entries`` set, the cache evicts its
    least-recently-used entries — correctness is unaffected (a future
    query re-reveals the score physically), only physical work grows.
    All operations take an internal lock so service worker threads can
    share one instance.
    """

    def __init__(
        self,
        scores: Optional[Dict[int, float]] = None,
        *,
        max_entries: Optional[int] = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be None or >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._scores: "OrderedDict[int, float]" = OrderedDict()
        self.evictions = 0
        self.merge((scores or {}).items())

    def __len__(self) -> int:
        return len(self._scores)

    def __contains__(self, frame: int) -> bool:
        with self._lock:
            return int(frame) in self._scores

    def get(self, frame: int) -> float:
        with self._lock:
            frame = int(frame)
            self._scores.move_to_end(frame)
            return self._scores[frame]

    def put(self, frame: int, score: float) -> None:
        self.merge(((frame, score),))

    def lookup(self, frames: Iterable[int]) -> Dict[int, float]:
        """The cached subset of ``frames`` as one consistent snapshot.

        A single locked pass — unlike per-frame ``get`` calls, a
        concurrent eviction cannot invalidate an entry between the
        membership test and the read.
        """
        with self._lock:
            found: Dict[int, float] = {}
            for frame in frames:
                frame = int(frame)
                score = self._scores.get(frame)
                if score is not None:
                    self._scores.move_to_end(frame)
                    found[frame] = score
            return found

    def merge(self, items: Iterable[Tuple[int, float]]) -> None:
        """Fold ``(frame, score)`` pairs in under one lock — exactly the
        entries and evictions :meth:`put` per pair would leave."""
        with self._lock:
            scores, bound = self._scores, self.max_entries
            for frame, score in items:
                frame = int(frame)
                scores[frame] = float(score)
                scores.move_to_end(frame)
                if bound is not None:
                    while len(scores) > bound:
                        scores.popitem(last=False)
                        self.evictions += 1

    def as_dict(self) -> Dict[int, float]:
        with self._lock:
            return dict(self._scores)

    # -- pickling (streaming checkpoints persist the cache) ------------
    def __getstate__(self):
        with self._lock:
            return {
                "scores": dict(self._scores),
                "max_entries": self.max_entries,
                "evictions": self.evictions,
            }

    def __setstate__(self, state):
        # Tolerate the pre-promotion layout too: the streaming-era
        # class pickled its raw __dict__ ({"_scores": {...}}), and old
        # checkpoints resolve to this class through the re-export.
        scores = state.get("scores", state.get("_scores", {}))
        self.max_entries = state.get("max_entries")
        self._lock = threading.Lock()
        self._scores = OrderedDict(
            (int(k), float(v)) for k, v in scores.items())
        self.evictions = state.get("evictions", 0)


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
        # One consistent snapshot up front: a bounded shared cache may
        # evict concurrently, so membership is decided exactly once.
        known = self.cache.lookup(indices)
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
        return np.asarray(
            [known[i] for i in indices], dtype=np.float64)

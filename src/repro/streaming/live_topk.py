"""Live top-k maintenance: batch-equivalent answers, delta-sized cost.

The cleaning loop (:class:`~repro.core.cleaner.TopKCleaner`) is a
deterministic function of the uncertain relation and the oracle's
answers. Oracle answers are immutable facts about frames — once a
frame's exact score has been revealed (as a Phase-1 label or a
Phase-2 confirmation), revealing it again costs nothing but latency.
:class:`LiveTopK` exploits exactly that: after every append
it re-certifies its query against the refreshed relation, but the
confirming oracle is backed by the session-wide :class:`ScoreCache`,
so only frames whose top-k membership *could* have changed — the new
arrivals, re-segmented windows, tuples the selector now reaches —
trigger fresh UDF invocations. Ledgers still charge the full
batch-equivalent amounts (the report must be bit-identical to a batch
re-run); the cache-miss count is tracked separately in
:class:`~repro.streaming.phase1_incremental.StreamingStats` as the
physical cost streaming actually pays.

The same class keeps a corpus answer live (DESIGN.md §9): a corpus
query's subscription is attached to every streaming member, and
whichever member appends next re-runs the *federated* query over the
union — closed members keep contributing their cached shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..api.executor import QueryExecutor
from ..core.result import QueryReport
from ..errors import QueryError
# Promoted to repro.oracle.cache (the service layer shares them across
# sessions); re-exported here for the streaming-era import path.
from ..oracle.cache import CachingOracle, ScoreCache  # noqa: F401


@dataclass
class LiveTopK:
    """One continuously maintained top-k answer over a growing target.

    Created by ``query.subscribe()`` on a streaming session or on a
    corpus with a streaming member. Holds the fluent query (recompiled
    per event — the plan's frame count tracks the watermark) and the
    report history: index 0 is the answer at subscribe time, one more
    per event. Iterating yields the reports delivered so far.
    """

    query: object  # repro.api.query.Query (kept loose: frozen dataclass)
    reports: List[QueryReport] = field(default_factory=list)
    #: Fresh (cache-miss) confirmation calls behind each report; 0 for
    #: a corpus refresh, which does not run on the member's executor.
    fresh_confirms: List[int] = field(default_factory=list)
    #: The :class:`~repro.corpus.federated.CorpusOutcome` (allocation,
    #: answer members) behind each report of a corpus answer; empty
    #: for a session answer, whose report carries its whole ledger.
    details: list = field(default_factory=list)

    @property
    def latest(self) -> QueryReport:
        if not self.reports:
            raise QueryError("subscription has not produced a report yet")
        return self.reports[-1]

    def __iter__(self):
        return iter(self.reports)

    def __len__(self) -> int:
        return len(self.reports)

    def refresh(self, executor: Optional[QueryExecutor] = None) \
            -> QueryReport:
        """Re-certify against the current watermark (called per event).

        A session query runs on ``executor``, the one the event's
        refresh pass hands over; a corpus query re-runs the federated
        engine and needs none.
        """
        if self.query._corpus is not None:
            outcome = self.query.run_detailed()
            self.details.append(outcome)
            report, fresh = outcome.report, 0
        elif executor is None:
            raise QueryError(
                "a session subscription refreshes on its session's executor")
        else:
            detail = executor.execute_detailed(self.query.plan())
            report, fresh = detail.report, detail.fresh_confirm_calls
        self.reports.append(report)
        self.fresh_confirms.append(fresh)
        return report

    def trim(self, max_history: int) -> None:
        """Drop all but the last ``max_history`` reports."""
        del self.reports[:-max_history]
        del self.fresh_confirms[:-max_history]
        del self.details[:-max_history]

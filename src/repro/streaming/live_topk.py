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
re-run); the cache-miss count rides each refresh's detail, and each
event's total rides the ``append()`` / ``tick()`` result — the
physical cost streaming actually pays.

The same class keeps a corpus answer live (DESIGN.md §9): a corpus
query's subscription is attached to every streaming member, and
whichever member appends next re-runs the *federated* query over the
union — closed members keep contributing their cached shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..api.executor import QueryExecutor
from ..core.result import QueryReport
from ..errors import QueryError


@dataclass
class LiveTopK:
    """One continuously maintained top-k answer over a growing target.

    Created by ``query.subscribe()`` on a streaming session or on a
    corpus with a streaming member. Holds the fluent query (recompiled
    per event — the plan's frame count tracks the watermark) and the
    latest refresh's outcome only: earlier answers were delivered by
    the events that produced them.
    """

    query: object  # repro.api.query.Query (kept loose: frozen dataclass)
    #: The latest refresh's outcome: an
    #: :class:`~repro.api.executor.ExecutionDetail` for a session
    #: answer, a :class:`~repro.corpus.federated.CorpusOutcome`
    #: (allocation, answer members) for a corpus one. Both carry
    #: ``report`` and ``fresh_confirm_calls``.
    detail: object = None

    @property
    def latest(self) -> QueryReport:
        if self.detail is None:
            raise QueryError("subscription has not produced a report yet")
        return self.detail.report

    def refresh(self, executor: Optional[QueryExecutor] = None) \
            -> QueryReport:
        """Re-certify against the current watermark (called per event).

        A session query runs on ``executor``, the one the event's
        refresh pass hands over; a corpus query re-runs the federated
        engine and needs none.
        """
        if self.query._corpus is not None:
            self.detail = self.query.run_detailed()
        elif executor is None:
            raise QueryError(
                "a session subscription refreshes on its session's executor")
        else:
            self.detail = executor.execute_detailed(self.query.plan())
        return self.detail.report

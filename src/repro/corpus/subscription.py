"""Live federated answers over streaming corpora.

A :class:`CorpusSubscription` keeps one federated top-k answer current
while corpus members grow: it registers itself with every
*streaming* member, and whichever member appends next triggers one
global refresh — the merged corpus state is fingerprint-invalidated by
the member's new Phase-1 entry, re-merged, and the federated query
re-certified over the union. Closed members simply keep contributing
their (cached) shards to every refresh.

The refreshed report lands both here (``subscription.latest``) and in
the appending member's :class:`~repro.streaming.session.AppendResult`
alongside its single-video subscriptions, so streaming callers observe
corpus answers through the interface they already poll.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

from ..core.result import QueryReport
from ..errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..api.query import Query
    from .federated import CorpusOutcome


@dataclass
class CorpusSubscription:
    """One continuously maintained federated top-k answer."""

    query: object  # repro.api.query.Query over a corpus (frozen dataclass)
    reports: List[QueryReport] = field(default_factory=list)
    #: The full outcome behind each report (allocation, ledgers).
    outcomes: List["CorpusOutcome"] = field(default_factory=list)

    @classmethod
    def attach(cls, query: "Query") -> "CorpusSubscription":
        """Register with every streaming member and refresh once."""
        streaming = [
            member for member in query.target.members if member.streaming
        ]
        if not streaming:
            raise QueryError(
                "corpus subscriptions need at least one streaming "
                "member; open members with Session.open_stream(...)")
        subscription = cls(query=query)
        subscription.refresh()
        for member in streaming:
            member.session.attach_subscription(subscription)
        return subscription

    @property
    def latest(self) -> QueryReport:
        if not self.reports:
            raise QueryError("subscription has not produced a report yet")
        return self.reports[-1]

    def __iter__(self):
        return iter(self.reports)

    def __len__(self) -> int:
        return len(self.reports)

    def refresh(self, executor=None) -> QueryReport:
        """Re-certify the federated answer over the current members.

        ``executor`` is what a member session's refresh pass hands
        every subscription; it is ignored, because a corpus refresh
        re-runs the *federated* engine, not a single-member query.
        """
        outcome = self.query.run_detailed()
        self.outcomes.append(outcome)
        self.reports.append(outcome.report)
        return outcome.report

    def trim(self, max_history: int) -> None:
        """Drop all but the last ``max_history`` reports."""
        del self.reports[:-max_history]
        del self.outcomes[:-max_history]

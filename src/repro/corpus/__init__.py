"""Federated multi-video top-k: corpora of shards, one global answer.

A :class:`VideoCorpus` bundles N member videos — closed archives or
live streams — behind one logical frame namespace and answers top-k
queries over the union: Phase 1 runs independently per shard, and a
single merged uncertain relation over ``(shard offset + local frame)``
keys drives the plain Phase-2 engine over the concatenated footage,
confirming through the members' own score caches — so budget, ledger
and report are those of a plain single-video execution over the
concatenation (DESIGN.md §9).

    corpus = VideoCorpus.open(["taipei-bus", "archie-day2"], "count[car]")
    outcome = corpus.query().topk(10).guarantee(0.9).run_detailed()
    outcome.report.summary(); outcome.answer_members()

``corpus.query()`` is the same :class:`~repro.api.query.Query` builder a
session hands out, targeted at the corpus, and its ``subscribe()``
returns the same :class:`~repro.streaming.live_topk.LiveTopK`: attached
to every streaming member, it re-runs the federated query on each
member event.
"""

from .corpus import CorpusMember, VideoCorpus
from .federated import CorpusOutcome, merge_phase1_entries

__all__ = [
    "VideoCorpus",
    "CorpusMember",
    "CorpusOutcome",
    "merge_phase1_entries",
]

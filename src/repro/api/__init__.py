"""The declarative query API: sessions, builders, plans, executors.

This is the user-facing layer of the reproduction (DESIGN.md §4)::

    session = Session.open("daxi-old-street", "count[person]")
    report = (session.query()
              .windows(size=30)
              .topk(5)
              .guarantee(0.9)
              .run())

* :class:`Session` opens a (video, UDF) pair once and owns the Phase-1
  cache and cost ledgers; many queries share one relation build.
* :class:`Query` is the fluent, immutable builder — the same class
  over a session or a :class:`~repro.corpus.corpus.VideoCorpus`; every
  clause validates eagerly and returns a new builder.
* :class:`QueryPlan` is the compiled, inspectable form
  (``query.explain()``), executed by :class:`QueryExecutor` into the
  standard :class:`~repro.core.result.QueryReport`.
* :mod:`~repro.api.registry` maps names to UDFs and videos so scripts
  can be driven by strings.
"""

from .session import Phase1Entry, Session, phase1_key
from .query import Query
from .plan import QueryPlan
from .executor import ExecutionDetail, QueryExecutor
from .registry import (
    format_corpus_spec,
    list_udfs,
    list_videos,
    parse_corpus_spec,
    resolve_corpus,
    resolve_udf,
    resolve_video,
)

__all__ = [
    "Session",
    "Phase1Entry",
    "phase1_key",
    "Query",
    "QueryPlan",
    "QueryExecutor",
    "ExecutionDetail",
    "resolve_udf",
    "resolve_video",
    "resolve_corpus",
    "parse_corpus_spec",
    "format_corpus_spec",
    "list_udfs",
    "list_videos",
]

"""Multi-tenant concurrent query service with cross-query sharing.

``QueryService`` accepts many queries at once (``submit``/``gather``
futures), schedules them with admission control and per-tenant
oracle-budget fairness, and optimizes *across* queries: single-flight
Phase-1 builds, a service-scope score cache that lets queries reuse
each other's cleaned tuples, and a warm-start checkpoint tier. See
DESIGN.md §8.
"""

from .artifacts import (
    ArtifactStats,
    SharedArtifacts,
    artifact_digest,
    group_key,
)
from .scheduler import FairScheduler, JobOutcome, QueryFuture
from .service import QueryService, ServiceStats

__all__ = [
    "ArtifactStats",
    "FairScheduler",
    "JobOutcome",
    "QueryFuture",
    "QueryService",
    "ServiceStats",
    "SharedArtifacts",
    "artifact_digest",
    "group_key",
]

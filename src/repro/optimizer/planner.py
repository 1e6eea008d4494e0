"""Workload-level planning: order, lanes and batch composition.

Given a set of pending submissions, :class:`WorkloadPlanner` produces a
:class:`WorkloadPlan` — an execution order plus per-query predictions —
that minimizes the *physical* cost the workload pays:

* **Shared-artifact grouping.** Queries on the same Phase-1 artifact
  (same ``(video content, UDF, phase1_key)``) run consecutively: the
  first query of a group pays the cold build (or finds it warm) and
  every later one rides the shared store instead of thrashing the
  residency LRU. The group's first query is its cache-warmer — it runs
  *before* the queries it warms, which is the whole point.
* **Cheapest-first.** Groups are ordered by their predicted total
  physical cost, and queries inside a group by their predicted Phase-2
  cost — the ``sort_by_cost`` discipline of workload-level query
  optimizers, on the ledger-calibrated estimates of
  :class:`~repro.optimizer.estimator.CostEstimator`.
* **Lane choice.** Each prediction carries the lane
  (inline vs process pool) whose observed overhead its work clears.

The plan is *advisory about cost, never about bytes*: reports are pure
functions of (video, scoring, config, plan), so any execution order
produces byte-identical reports — the optimizer bench asserts exactly
that while gating the cost margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..api.plan import QueryPlan
from ..api.query import Query
from ..api.session import Session, phase1_key
from ..errors import QueryError
from ..service.artifacts import artifact_digest, group_key
from .estimator import CostEstimator, CostPrediction


@dataclass(frozen=True)
class PlannedQuery:
    """One submission with its predicted cost and chosen lane."""

    #: Position in the caller's original submission list.
    index: int
    session: Session
    plan: QueryPlan
    prediction: CostPrediction
    #: Identity of the Phase-1 artifact the query needs.
    artifact: tuple

    @property
    def digest(self) -> str:
        return artifact_digest(self.artifact)


@dataclass(frozen=True)
class WorkloadPlan:
    """An ordered workload: ``items`` run first-to-last."""

    items: Tuple[PlannedQuery, ...]

    @property
    def estimated_physical_seconds(self) -> float:
        return sum(i.prediction.physical_seconds for i in self.items)

    @property
    def estimated_total_seconds(self) -> float:
        return sum(i.prediction.total_seconds for i in self.items)

    def order(self) -> List[int]:
        """Original submission indices in execution order."""
        return [item.index for item in self.items]

    def explain(self) -> str:
        """Render the planned order as an indented, readable table."""
        lines = [
            f"WorkloadPlan: {len(self.items)} queries, "
            f"~{self.estimated_physical_seconds:.1f}s physical "
            f"(~{self.estimated_total_seconds:.1f}s ledger)",
        ]
        for position, item in enumerate(self.items):
            plan = item.plan
            lines.append(
                f"  {position:3d}. [#{item.index}] "
                f"{plan.video_name}/{plan.udf_name} "
                f"top-{plan.k}@{plan.thres:g} {plan.mode} · "
                f"{item.prediction.describe()}"
            )
        return "\n".join(lines)


class WorkloadPlanner:
    """Orders pending submissions cheapest-first, artifacts shared."""

    def __init__(self, estimator: CostEstimator, *, artifacts=None):
        self.estimator = estimator
        #: Optional :class:`~repro.service.artifacts.SharedArtifacts`
        #: consulted for residency and score-cache coverage.
        self.artifacts = artifacts

    # ------------------------------------------------------------------
    def plan(
        self,
        queries: Sequence,
        *,
        session: Optional[Session] = None,
        lane: Callable[[Session], str] = lambda session: "inline",
    ) -> WorkloadPlan:
        """Plan a set of pending submissions.

        ``queries`` holds fluent :class:`~repro.api.query.Query`
        objects (session implied) or compiled
        :class:`~repro.api.plan.QueryPlan` objects (pass ``session=``,
        exactly like ``QueryService.submit``). ``lane`` is the
        executing service's lane rule (``QueryService._lane``): the
        planner may only choose the process lane for a session the
        service would actually ship, so the plan it explains is the
        plan that runs.
        """
        resolved = [
            self._resolve(index, query, session)
            for index, query in enumerate(queries)
        ]
        # Group by artifact; predict each query with warm=True for
        # every group member after the first — the planner itself is
        # what makes them warm by running the group head first.
        groups: Dict[tuple, List[Tuple[int, Session, QueryPlan]]] = {}
        for index, qsession, qplan in resolved:
            artifact = (
                group_key(qsession.video, qsession.scoring),
                phase1_key(qplan.config),
            )
            groups.setdefault(artifact, []).append((index, qsession, qplan))

        planned_groups: List[List[PlannedQuery]] = []
        for artifact, members in groups.items():
            already_warm = self._warm(artifact, members[0][1])
            coverage = self._coverage(artifact[0], members[0][2])
            predictions = [
                PlannedQuery(
                    index=index,
                    session=qsession,
                    plan=qplan,
                    prediction=self.estimator.predict(
                        qplan,
                        group=artifact[0],
                        digest=artifact_digest(artifact),
                        warm=already_warm,
                        cache_coverage=coverage,
                        pool_available=lane(qsession) != "inline",
                    ),
                    artifact=artifact,
                )
                for index, qsession, qplan in members
            ]
            # Cheapest Phase 2 leads the group (it is the warmer);
            # submission order breaks ties so planning is stable.
            predictions.sort(
                key=lambda p: (p.prediction.phase2_seconds, p.index))
            # Only the head can pay the build: re-predict the rest warm.
            head, rest = predictions[0], predictions[1:]
            rest = [
                PlannedQuery(
                    index=p.index,
                    session=p.session,
                    plan=p.plan,
                    prediction=self.estimator.predict(
                        p.plan,
                        group=artifact[0],
                        digest=p.digest,
                        warm=True,
                        cache_coverage=coverage,
                        pool_available=lane(p.session) != "inline",
                    ),
                    artifact=artifact,
                )
                for p in rest
            ]
            planned_groups.append([head, *rest])

        # Cheapest group first; head index breaks ties for stability.
        planned_groups.sort(key=lambda g: (
            sum(item.prediction.physical_seconds for item in g),
            g[0].index,
        ))
        return WorkloadPlan(
            items=tuple(item for g in planned_groups for item in g))

    # ------------------------------------------------------------------
    def _resolve(
        self, index: int, query, session: Optional[Session]
    ) -> Tuple[int, Session, QueryPlan]:
        if isinstance(query, Query) and isinstance(query.target, Session):
            return index, query.target, query.plan()
        if isinstance(query, QueryPlan):
            if session is None:
                raise QueryError(
                    "planning a compiled QueryPlan needs session=...")
            return index, session, query
        raise QueryError(
            f"plan expects a session Query or QueryPlan, got {query!r}")

    def _warm(self, artifact: tuple, session: Session) -> bool:
        if session.phase1_cached(
                config=None, key=artifact[1]):
            return True
        if self.artifacts is not None:
            return self.artifacts.resident(artifact)
        return False

    def _coverage(self, group, plan: QueryPlan) -> float:
        if self.artifacts is None or plan.num_tuples <= 0:
            return 0.0
        cache = self.artifacts.score_cache(group)
        return min(1.0, len(cache) / plan.num_tuples)

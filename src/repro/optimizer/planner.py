"""Workload-level planning: which queries share a Phase-1 artifact.

Phase 1 (label, train, infer) dominates what a workload pays, so the
one cross-query decision worth making is *which queries run while
their artifact is resident*. :class:`WorkloadPlanner` turns a list of
pending submissions into a :class:`WorkloadPlan` by one rule, a stable
group-by on the artifact identity ``(group_key(video, scoring),
phase1_key(config))``:

* queries on the same artifact run consecutively, in submission order:
  the group's first query pays the build (or finds it warm) and every
  later one rides the shared store instead of thrashing its LRU;
* a group whose first query pays no build — the artifact is resident
  in the shared store or pinned by that query's session — leads, so it
  is served before a cold build can evict it; all other groups keep
  the order their first queries were submitted in.

The plan prices nothing. Reports are pure functions of (video, scoring,
config, plan), so any execution order produces byte-identical reports;
what the order changes is how many Phase-1 builds the workload pays —
the optimizer bench counts them (DESIGN.md §11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..api.plan import QueryPlan
from ..api.query import Query
from ..api.session import Session, phase1_key
from ..errors import QueryError
from ..service.artifacts import group_key


@dataclass(frozen=True)
class PlannedQuery:
    """One submission with its place in the plan."""

    #: Position in the caller's original submission list.
    index: int
    session: Session
    plan: QueryPlan
    #: Identity of the Phase-1 artifact the query needs.
    artifact: tuple
    #: Whether the query pays no Phase-1 build: its artifact is resident
    #: or session-pinned, or an earlier query of its group builds it.
    warm: bool
    #: The lane the executing service's lane rule names for its session.
    lane: str


@dataclass(frozen=True)
class WorkloadPlan:
    """An ordered workload: ``items`` run first-to-last."""

    items: Tuple[PlannedQuery, ...]

    def order(self) -> List[int]:
        """Original submission indices in execution order."""
        return [item.index for item in self.items]

    def explain(self) -> str:
        """Render the planned order as an indented, readable table."""
        artifacts = {item.artifact for item in self.items}
        builds = sum(not item.warm for item in self.items)
        lines = [
            f"WorkloadPlan: {len(self.items)} queries over "
            f"{len(artifacts)} artifacts, {builds} to build",
        ]
        for position, item in enumerate(self.items):
            plan = item.plan
            lines.append(
                f"  {position:3d}. [#{item.index}] "
                f"{plan.video_name}/{plan.udf_name} "
                f"top-{plan.k}@{plan.thres:g} {plan.mode} · "
                f"{'warm' if item.warm else 'cold'} · lane={item.lane}"
            )
        return "\n".join(lines)


class WorkloadPlanner:
    """Groups pending submissions by the Phase-1 artifact they share."""

    def __init__(self, *, artifacts=None):
        #: Optional :class:`~repro.service.artifacts.SharedArtifacts`
        #: consulted for residency.
        self.artifacts = artifacts

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
        executing service's lane rule (``QueryService._lane``), so the
        plan it explains is the plan that runs.
        """
        groups: Dict[tuple, List[PlannedQuery]] = {}
        for index, query in enumerate(queries):
            qsession, qplan = self._resolve(query, session)
            artifact = (
                group_key(qsession.video, qsession.scoring),
                phase1_key(qplan.config),
            )
            members = groups.setdefault(artifact, [])
            members.append(PlannedQuery(
                index=index,
                session=qsession,
                plan=qplan,
                artifact=artifact,
                # Only a group's first query can pay the build: running
                # it first is what makes the rest warm.
                warm=bool(members) or self._warm(artifact, qsession),
                lane=lane(qsession),
            ))
        # Stable: warm-headed groups lead, the rest keep the order
        # their first queries arrived in (dicts iterate in insertion
        # order).
        ordered = sorted(groups.values(), key=lambda group: not group[0].warm)
        return WorkloadPlan(
            items=tuple(item for group in ordered for item in group))

    @staticmethod
    def _resolve(
        query, session: Optional[Session]
    ) -> Tuple[Session, QueryPlan]:
        if isinstance(query, Query) and isinstance(query.target, Session):
            return query.target, query.plan()
        if isinstance(query, QueryPlan):
            if session is None:
                raise QueryError(
                    "planning a compiled QueryPlan needs session=...")
            return session, query
        raise QueryError(
            f"plan expects a session Query or QueryPlan, got {query!r}")

    def _warm(self, artifact: tuple, session: Session) -> bool:
        if session.phase1_cached(key=artifact[1]):
            return True
        return self.artifacts is not None \
            and self.artifacts.resident(artifact)

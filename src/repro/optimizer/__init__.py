"""Multi-query workload planning (DESIGN.md §11).

:class:`~repro.optimizer.planner.WorkloadPlanner` orders a set of
pending submissions so queries sharing a Phase-1 artifact run while it
is resident; ``QueryService.plan_workload()`` / ``submit_plan()`` are
its front door.
"""

from .planner import PlannedQuery, WorkloadPlan, WorkloadPlanner

__all__ = ["PlannedQuery", "WorkloadPlan", "WorkloadPlanner"]

"""The process-pool sweep executor (DESIGN.md §6).

:class:`ParallelRunner` fans a sweep of (session, plan) grid points —
the shape of every experiment in fig5/6/7/9 and table8 — across a
process pool, one worker task per grid point. The expensive, shared
half of each query is hoisted out of the pool:

1. **Phase 1 once.** For every distinct (session, plan configuration)
   pair, the parent builds (or fetches from the session cache) the
   Phase 1 entry — sampling, CMDN grid training, diff detection,
   proxy inference — exactly once.
2. **Ship once.** Each session's video, scoring function,
   configuration and Phase 1 entries are pickled into one
   :class:`~repro.parallel.pool.Shipped` handle that every one of its
   grid points names; a worker is sent the blob when it first needs it
   and unpickles it once.
3. **Phase 2 in workers.** A grid point is the worker task the
   service's process lane runs (:mod:`repro.service.backend`) — a
   batch of one plan with nothing to merge: the worker reconstructs
   the session, adopts the prebuilt Phase 1 entries (skipping all CMDN
   training) and runs only the cleaning loop, through its own cache.

Determinism contract: a report is always a pure function of (video,
scoring, config, plan), so serial and parallel execution at any worker
count produce **bit-identical** ``QueryReport.to_json()`` strings
(``tests/test_parallel_equivalence.py``). Worker exceptions
are re-raised in the parent in grid order — the error the serial loop
would have hit first — so failures are deterministic too.

Cost-ledger semantics: each grid point's Phase 2 charges land in a
fresh per-query ledger returned alongside its report;
:meth:`SweepOutcome.merged_cost` folds those into one sweep ledger and
adds each distinct Phase 1 ledger exactly once (no double counting —
the satellite regression tests pin this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.result import QueryReport
from ..oracle.cost import CostModel, merge_cost_models
from .pool import PersistentPool, resolve_workers


@dataclass
class SweepOutcome:
    """Everything a sweep produced, in grid order."""

    #: One report per grid point, aligned with the submitted plans.
    reports: List[QueryReport]
    #: The per-query Phase 2 ledger behind each report.
    phase2_costs: List[CostModel]
    #: Each distinct Phase 1 ledger, exactly once (build order).
    phase1_costs: List[CostModel]

    def merged_cost(self) -> CostModel:
        """One sweep-level ledger: Phase 1 once + every Phase 2.

        Per-worker charges merge key-wise; the shared Phase 1 ledgers
        are added exactly once regardless of how many grid points (or
        workers) reused them, so nothing double-counts.
        """
        return merge_cost_models([*self.phase1_costs, *self.phase2_costs])


class ParallelRunner:
    """Fan experiment sweeps across a process pool, Phase 1 shared.

    ``workers`` resolves through the usual rule (explicit value, else
    ``REPRO_WORKERS``, else serial).
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = resolve_workers(workers)

    # ------------------------------------------------------------------
    def run_sweep(
        self, session, plans: Sequence
    ) -> List[QueryReport]:
        """Execute many plans against one session, in plan order."""
        return self.run_grid([(session, plan) for plan in plans])

    def run_grid(self, grid: Sequence[Tuple[object, object]]):
        """Execute (session, plan) grid points, returning reports."""
        return self.run_grid_detailed(grid).reports

    def run_grid_detailed(
        self, grid: Sequence[Tuple[object, object]]
    ) -> SweepOutcome:
        """Execute a grid and keep the cost ledgers (grid order)."""
        from ..api.executor import QueryExecutor
        from ..api.session import phase1_key
        from ..service.backend import (
            BatchTask,
            _service_worker_run,
            ship_spec,
        )

        grid = list(grid)
        if not grid:
            return SweepOutcome(reports=[], phase2_costs=[], phase1_costs=[])

        # Index the distinct sessions in first-appearance order.
        sessions: List = []
        session_index: Dict[int, int] = {}
        tasks: List[Tuple[int, object]] = []
        for session, plan in grid:
            index = session_index.get(id(session))
            if index is None:
                index = len(sessions)
                session_index[id(session)] = index
                sessions.append(session)
            tasks.append((index, plan))

        # Phase 1 once per (session, configuration): built here in the
        # parent — workers never train a CMDN.
        phase1_costs: List[CostModel] = []
        entries: List[List[Tuple[object, object]]] = [[] for _ in sessions]
        seen_entries: set = set()
        for index, plan in tasks:
            key = phase1_key(plan.config)
            if (index, key) in seen_entries:
                continue
            seen_entries.add((index, key))
            entry = sessions[index].phase1(plan.config)
            entries[index].append((plan.config, entry))
            phase1_costs.append(entry.cost_model)

        if self.workers <= 1 or len(tasks) == 1:
            # Serial fallback: same normalized plans, same sessions, no
            # pool — the reference the parallel path must bit-match.
            details = [
                QueryExecutor(sessions[index]).execute_detailed(plan)
                for index, plan in tasks
            ]
        else:
            specs = [
                ship_spec(session, session_entries)
                for session, session_entries in zip(sessions, entries)
            ]
            with PersistentPool(min(self.workers, len(tasks))) as pool:
                results = pool.map(_service_worker_run, [
                    BatchTask(spec=specs[index], plans=(plan,))
                    for index, plan in tasks
                ])
            details = [result.details[0] for result in results]

        return SweepOutcome(
            reports=[detail.report for detail in details],
            phase2_costs=[detail.phase2_cost for detail in details],
            phase1_costs=phase1_costs,
        )


def run_plans(
    session,
    plans: Sequence,
    *,
    workers: Optional[int] = None,
) -> List[QueryReport]:
    """Convenience: one-session sweep with default determinism."""
    return ParallelRunner(workers).run_sweep(session, plans)

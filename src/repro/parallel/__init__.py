"""Parallel execution subsystem (DESIGN.md §6).

Two layers:

* :mod:`repro.parallel.pool` — worker-count resolution (the
  ``REPRO_WORKERS`` environment variable), ordered thread mapping for
  calls that wait on pool workers, and the one process-pool protocol:
  :class:`~repro.parallel.pool.PersistentPool` (the only place worker
  processes are started: ordered gather, restart after a worker death)
  with the :class:`~repro.parallel.pool.Shipped` ship-once handle.
* :mod:`repro.parallel.runner` — :class:`ParallelRunner`, the
  process-pool sweep executor: each (session, plan) grid point runs
  Phase 2 in a worker against a Phase 1 result that was built once in
  the parent, serialized, and shared, so workers never retrain the
  CMDN. Reports are bit-identical to the serial path, which
  ``tests/test_parallel_equivalence.py`` certifies.
"""

from __future__ import annotations

from .pool import WORKERS_ENV, resolve_workers, thread_map
from .runner import ParallelRunner, SweepOutcome, run_plans

__all__ = [
    "WORKERS_ENV",
    "resolve_workers",
    "thread_map",
    "ParallelRunner",
    "SweepOutcome",
    "run_plans",
]

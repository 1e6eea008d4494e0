"""Parallel execution primitives (DESIGN.md §6).

:mod:`repro.parallel.pool` — worker-count resolution (the
``REPRO_WORKERS`` environment variable), ordered thread mapping for
calls that wait on pool workers, and the one process-pool protocol:
:class:`~repro.parallel.pool.PersistentPool` (``submit`` and ``call``,
restart after a worker death) with the :class:`~repro.parallel.pool.Shipped`
ship-once handle. The one fan-out that uses them is
:class:`~repro.service.QueryService`: an experiment sweep or a cold
corpus submits to one, and its process lane is the only place worker
processes are started.
"""

from __future__ import annotations

from .pool import WORKERS_ENV, resolve_workers, thread_map

__all__ = [
    "WORKERS_ENV",
    "resolve_workers",
    "thread_map",
]

"""The one process-pool protocol (DESIGN.md §6), pinned once.

Every place the library leaves the process goes through
:class:`~repro.parallel.pool.PersistentPool`, and the one owner of
such a pool is :class:`~repro.service.QueryService`: a Phase-1 build
and a batch of plans both ship their long-lived state as a
:class:`~repro.parallel.pool.Shipped` handle and run through
:meth:`PersistentPool.call`. The equivalence suites certify what the
service *computes*; this file certifies how the state reaches a worker
and how results and failures come back.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro import Session
from repro.errors import ServiceError
from repro.oracle import counting_udf
from repro.oracle.cache import ScoreCache
from repro.parallel.pool import PersistentPool, Shipped
from repro.service.backend import run_batch_in_pool, ship_spec
from repro.video import TrafficVideo

WAIT = 60.0

# ----------------------------------------------------------------------
# Ship-once: one pickle in the parent, one unpickle per worker.

#: Per-process unpickle counts by video name (read inside the worker).
_UNPICKLED: Counter = Counter()


class CountedTraffic(TrafficVideo):
    """A video that counts how often each process unpickles it."""

    def __setstate__(self, state):
        self.__dict__.update(state)
        _UNPICKLED[self.name] += 1


def _unpickle_count(name: str) -> int:
    return _UNPICKLED[name]


def _service_batches(pool, session, plans):
    """What ``QueryService`` dispatches: batches with a cache delta."""
    spec = ship_spec(session, [(session.config, session.phase1())])
    cache, shipped = ScoreCache(), set()
    for plan in plans:
        run_batch_in_pool(
            pool, spec=spec, plans=[plan],
            shared_cache=cache, shipped=shipped)
    assert len(cache) > 0


@pytest.mark.parametrize("dispatch", [_service_batches])
def test_shipped_state_is_unpickled_once_per_worker(dispatch, fast_config):
    name = f"ship-once-{dispatch.__name__}"
    session = Session(
        CountedTraffic(name, 300, seed=5), counting_udf("car"),
        config=fast_config)
    plans = [
        session.query().topk(k).guarantee(0.8).plan()
        for k in (2, 3, 4, 5)
    ]
    with PersistentPool(1) as pool:
        dispatch(pool, session, plans)
        assert pool.submit(_unpickle_count, name).result(WAIT) == 1


def test_handles_pickle_once_and_get_distinct_keys():
    first, second = Shipped([1, 2]), Shipped([1, 2])
    assert first.key != second.key
    assert first.blob == second.blob
    with PersistentPool(1) as pool:
        # Worker side: the same object every time, per key.
        ids = [pool.call(_resolved_id, handle)
               for handle in (first, second, first, second)]
    assert ids[0] == ids[2] and ids[1] == ids[3] and ids[0] != ids[1]


def _resolved_id(handle: Shipped) -> int:
    return id(handle.resolve())


# ----------------------------------------------------------------------
# One call: its answer or its error.


class _Boom(RuntimeError):
    pass


def _boom(value):
    raise _Boom(value)


def test_call_reraises_a_failure_and_stays_usable():
    with PersistentPool(2) as pool:
        with pytest.raises(_Boom, match="first"):
            pool.call(_boom, "first")
        assert pool.call(abs, -1) == 1


# ----------------------------------------------------------------------
# A dead worker does not wedge the pool (ROADMAP 4(i)).


def test_pool_restarts_after_a_worker_dies():
    with PersistentPool(2) as pool:
        with pytest.raises(BrokenProcessPool):
            pool.submit(os._exit, 1).result(WAIT)
        assert pool.submit(abs, -2).result(WAIT) == 2
        assert pool.call(abs, -3) == 3
        # ``call`` is where a dead worker becomes a ServiceError, the
        # restart already counted when it raises.
        restarts = pool.restarts
        with pytest.raises(ServiceError) as raised:
            pool.call(os._exit, 1)
        assert isinstance(raised.value.__cause__, BrokenProcessPool)
        assert pool.restarts == restarts + 1
        assert pool.call(abs, -4) == 4


# ----------------------------------------------------------------------
# Structure: one owner of a ProcessPoolExecutor.


def test_only_the_pool_module_names_a_process_pool_executor():
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    owners = sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if "ProcessPoolExecutor" in path.read_text()
    )
    assert owners == [os.path.join("parallel", "pool.py")]


def test_only_the_service_constructs_a_persistent_pool():
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    owners = sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if "PersistentPool(" in path.read_text()
    )
    assert owners == [os.path.join("service", "service.py")]

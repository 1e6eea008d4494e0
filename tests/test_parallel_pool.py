"""The one process-pool protocol (DESIGN.md §6), pinned once.

Every place the library leaves the process goes through
:class:`~repro.parallel.pool.PersistentPool`, and the one owner of
such a pool is :class:`~repro.service.QueryService`: a Phase-1 build
and a batch of plans both ship their long-lived state as a
:class:`~repro.parallel.pool.Shipped` handle and gather through
:meth:`PersistentPool.map`. The equivalence suites certify what the
service *computes*; this file certifies how the state reaches a worker
and how results and failures come back.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro import Session
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
        ids = pool.map(_resolved_id, [first, second, first, second])
    assert ids[0] == ids[2] and ids[1] == ids[3] and ids[0] != ids[1]


def _resolved_id(handle: Shipped) -> int:
    return id(handle.resolve())


# ----------------------------------------------------------------------
# Ordered gather.


class _Boom(RuntimeError):
    pass


def _sleep_then(seconds: float, value):
    time.sleep(seconds)
    if isinstance(value, str):
        raise _Boom(value)
    return value


def _boom_or_touch(directory: str, value):
    if isinstance(value, str):
        raise _Boom(value)
    time.sleep(0.05)
    Path(directory, str(value)).touch()


def test_map_returns_results_in_submission_order():
    with PersistentPool(3) as pool:
        # Completion order is 2, 1, 0.
        assert pool.map(
            _sleep_then, [0.4, 0.2, 0.0], [10, 11, 12]) == [10, 11, 12]
        assert pool.map(abs, []) == []


def test_map_reraises_the_earliest_failure_and_stays_usable():
    with PersistentPool(3) as pool:
        # Task 2 fails long before task 1 does; task 1's error is the
        # one a serial loop would have hit first.
        with pytest.raises(_Boom, match="first"):
            pool.map(
                _sleep_then, [0.0, 0.4, 0.0], [1, "first", "second"])
        assert pool.map(abs, [-1, -2]) == [1, 2]


def test_map_cancels_tasks_that_have_not_started(tmp_path):
    with PersistentPool(1) as pool:
        with pytest.raises(_Boom):
            pool.map(
                _boom_or_touch,
                [str(tmp_path)] * 13, ["boom", *range(12)])
        # Everything still queued behind the failure was cancelled
        # (the executor prefetches a couple of tasks it cannot recall).
        assert pool.submit(abs, -1).result(WAIT) == 1
        assert len(list(tmp_path.iterdir())) < 12


# ----------------------------------------------------------------------
# A dead worker does not wedge the pool (ROADMAP 4(i)).


def test_pool_restarts_after_a_worker_dies():
    with PersistentPool(2) as pool:
        with pytest.raises(BrokenProcessPool):
            pool.submit(os._exit, 1).result(WAIT)
        assert pool.submit(abs, -2).result(WAIT) == 2
        assert pool.map(abs, [-3, -4]) == [3, 4]


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

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

import errno
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro import Session
from repro.errors import ServiceClosedError, ServiceError
from repro.oracle import counting_udf
from repro.oracle.cache import ScoreCache
from repro.parallel import pool as pool_module
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


def test_a_task_raising_system_exit_hands_it_back_and_the_worker_lives():
    with PersistentPool(1) as pool:
        pid = pool.call(os.getpid)
        with pytest.raises(SystemExit) as raised:
            pool.call(sys.exit, 3)
        assert raised.value.code == 3
        assert isinstance(pool.submit(sys.exit, 4).exception(WAIT),
                          SystemExit)
        assert pool.call(os.getpid) == pid
        assert pool.restarts == 0


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
# Many callers, few workers: a pipe carries one task at a time.

THREADS, CALLS = 8, 50


def _echo(value):
    return os.getpid(), value


def _storm(pool, task):
    """``task(pool, thread, i)`` for 8 threads x 50 calls, under a
    switch interval that hands the GIL over as often as it can; the
    answers in (thread, i) order.

    Bounded in time: a caller still blocked after :data:`WAIT` fails
    the test, and the pool's workers are killed so that it and the
    pool's shutdown come unstuck.
    """
    answers, errors = {}, []

    def caller(thread):
        try:
            for i in range(CALLS):
                answers[thread, i] = task(pool, thread, i)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [threading.Thread(target=caller, args=(thread,), daemon=True)
               for thread in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + WAIT
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    stuck = sum(thread.is_alive() for thread in threads)
    if stuck:
        for child in multiprocessing.active_children():
            child.kill()
    assert not stuck, f"{stuck} callers still blocked after {WAIT} s"
    if errors:
        raise errors[0]
    return [answers[thread, i]
            for thread in range(THREADS) for i in range(CALLS)]


def test_every_caller_gets_its_own_answer_back():
    with PersistentPool(2) as pool:
        answers = _storm(
            pool, lambda pool, thread, i: pool.call(_echo, (thread, i)))
        assert pool.restarts == 0
    assert [value for _, value in answers] == [
        (thread, i) for thread in range(THREADS) for i in range(CALLS)]
    assert 1 <= len({pid for pid, _ in answers}) <= 2


def test_a_death_mid_storm_fails_only_its_own_call():
    doomed = (THREADS // 2, CALLS // 2)

    def task(pool, thread, i):
        if (thread, i) == doomed:
            with pytest.raises(ServiceError) as raised:
                pool.call(os._exit, 1)
            assert isinstance(raised.value.__cause__, BrokenProcessPool)
            return None
        return pool.call(_echo, (thread, i))

    with PersistentPool(2) as pool:
        answers = _storm(pool, task)
        assert pool.restarts == 1
    assert [answer and answer[1] for answer in answers] == [
        None if (thread, i) == doomed else (thread, i)
        for thread in range(THREADS) for i in range(CALLS)]


def test_an_idle_worker_killed_is_replaced_without_an_error():
    with PersistentPool(1) as pool:
        pid = pool.call(os.getpid)
        victim, = [child for child in multiprocessing.active_children()
                   if child.pid == pid]
        os.kill(pid, signal.SIGKILL)
        victim.join(WAIT)
        assert victim.exitcode == -signal.SIGKILL
        assert pool.call(abs, -5) == 5
        assert pool.call(os.getpid) != pid
        assert pool.restarts == 1


class _ForkFails:
    """A start method whose pipes are real and whose fork fails."""

    def __init__(self):
        self.ends = []

    def Pipe(self, duplex):
        ends = multiprocessing.Pipe(duplex)
        self.ends.extend(ends)
        return ends

    def Process(self, **_):
        return self

    def start(self):
        raise OSError(errno.EAGAIN, "fork refused")


def test_a_failed_fork_closes_both_pipe_ends_and_frees_the_slot(
        monkeypatch):
    failing = _ForkFails()
    pool = PersistentPool(1)
    monkeypatch.setattr(pool_module, "_START", failing)
    with pytest.raises(OSError, match="fork refused"):
        pool.call(abs, -1)
    assert len(failing.ends) == 2
    assert all(end.closed for end in failing.ends)
    monkeypatch.undo()
    # The one worker slot is free again: a call forks, not waits.
    answers = []
    caller = threading.Thread(
        target=lambda: answers.append(pool.call(abs, -6)), daemon=True)
    caller.start()
    caller.join(WAIT)
    assert answers == [6], "the failed fork kept its worker slot"
    assert pool.restarts == 0
    pool.shutdown()


def test_shutdown_reaps_every_worker():
    with PersistentPool(2) as pool:
        pids = {pid for pid, _ in _storm(
            pool, lambda pool, thread, i: pool.call(_echo, i))}
    assert not pids & {child.pid for child in multiprocessing.active_children()}
    for pid in pids:
        with pytest.raises(ChildProcessError):  # reaped, not a zombie
            os.waitpid(pid, os.WNOHANG)
    with pytest.raises(ServiceClosedError):
        pool.call(abs, -1)


#: A pool process that dies with both workers started and idle.
_ORPHANING = """
import multiprocessing, os, threading
from repro.parallel.pool import PersistentPool
pool = PersistentPool(2)
callers = [threading.Thread(target=pool.call, args=(os.system, "sleep 0.3"))
           for _ in range(2)]
for caller in callers:
    caller.start()
for caller in callers:
    caller.join()
print(*(child.pid for child in multiprocessing.active_children()))
os._exit(0)
"""


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc")
def test_workers_exit_when_their_pool_process_dies():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", _ORPHANING], capture_output=True, text=True,
        timeout=WAIT, check=True, env={**os.environ, "PYTHONPATH": str(src)})
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == 2
    deadline = time.monotonic() + WAIT
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, pids))


# ----------------------------------------------------------------------
# Structure: one module starts processes, and no executor relays them.


def _modules_naming(*names):
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    return sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if any(name in path.read_text() for name in names)
    )


def test_no_module_names_a_process_pool_executor():
    assert _modules_naming("ProcessPoolExecutor") == []


def test_only_the_pool_module_starts_worker_processes():
    assert _modules_naming("multiprocessing", "os.fork", "subprocess") == \
        [os.path.join("parallel", "pool.py")]


def test_only_the_service_constructs_a_persistent_pool():
    assert _modules_naming("PersistentPool(") == \
        [os.path.join("service", "service.py")]

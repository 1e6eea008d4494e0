"""The ``Shipped`` wire protocol, counted (DESIGN.md §6).

A handle crosses the pipe bare; a worker that was never sent its key
answers :class:`~repro.parallel.pool.NotShipped` before the task runs,
and ``PersistentPool.call`` sends that task again with the blob.
``tests/test_parallel_pool.py`` pins what the three call sites ship;
this file counts what the protocol itself does.
"""

from __future__ import annotations

import os
import pickle
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.parallel.pool import NotShipped, PersistentPool, Shipped
from repro.trace import Tracer, active_span

WAIT = 60.0

#: Per-process counts by name: pickles (the parent's) and unpickles
#: (each worker's own, read inside the worker).
_PICKLED: Counter = Counter()
_UNPICKLED: Counter = Counter()


class _Counted:
    def __init__(self, name: str):
        self.name = name

    def __getstate__(self):
        _PICKLED[self.name] += 1
        return self.__dict__

    def __setstate__(self, state):
        self.__dict__.update(state)
        _UNPICKLED[self.name] += 1


@dataclass
class _Nested:
    deep: list


def _run(handle, directory: str, index: int):
    """One task: a side effect *first*, then the resolve.

    Only a protocol that finds the miss before the task runs keeps the
    side effect at one per task.
    """
    with open(Path(directory, f"task-{index}"), "a") as log:
        log.write("x")
    if isinstance(handle, _Nested):
        handle = handle.deep[0]["handle"]
    obj = handle.resolve()
    return os.getpid(), _UNPICKLED[obj.name]


def _carries(pool):
    """Record the ``carry`` flag of every task the pool submits."""
    flags, real = [], pool._submit

    def spy(payload, handles, *, carry):
        flags.append(carry)
        return real(payload, handles, carry=carry)

    pool._submit = spy
    return flags


@pytest.mark.parametrize("wrap", [
    lambda handle: handle,
    lambda handle: _Nested(deep=[{"handle": handle}]),
], ids=["argument", "nested"])
def test_a_blob_crosses_once_per_worker_and_a_missed_task_runs_once(
        tmp_path, wrap):
    name = f"counted-{os.path.basename(tmp_path)}"
    handle = Shipped(_Counted(name))
    key = handle.key
    tasks, workers = 12, 2
    with PersistentPool(workers) as pool:
        carries = _carries(pool)
        answers, rounds = [], []
        for round_ in range(2):
            answers += [
                pool.call(_run, wrap(handle), str(tmp_path), index)
                for index in range(round_ * tasks, (round_ + 1) * tasks)]
            rounds.append(carries[:])
            del carries[:]
    # Unpickled once in every worker that ran a task, however many.
    assert {count for _, count in answers} == {1}
    assert 1 <= len({pid for pid, _ in answers}) <= workers
    # Pickled once in the parent; the key never moved.
    assert _PICKLED[name] == 1 and handle.key == key
    # Every task — the ones that drew a miss too — ran exactly once.
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(f"task-{i}" for i in range(2 * tasks))
    assert {p.read_text() for p in tmp_path.iterdir()} == {"x"}
    # Every task goes bare first; a blob only follows a miss, and the
    # cold round drew at least one. (The one-worker test below pins
    # that a warm worker draws none.)
    for sent in rounds:
        assert sent.count(False) == tasks and sent[0] is False
        assert (True, True) not in set(zip(sent, sent[1:]))
    assert len(rounds[0]) > tasks


def test_a_bare_handle_is_small_and_says_so_when_unknown():
    handle = Shipped(_Counted("bare" * 4096))
    wire = pickle.dumps(handle, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(handle.blob) > 16_000 and len(wire) < 200
    arrived = pickle.loads(wire)
    assert (arrived.key, arrived.blob) == (handle.key, None)
    with pytest.raises(NotShipped):
        arrived.resolve()


def test_a_fresh_worker_is_sent_the_blob_again(tmp_path):
    handle = Shipped(_Counted("after-restart"))
    with PersistentPool(1) as pool:
        carries = _carries(pool)
        first = pool.call(_run, handle, str(tmp_path), 0)
        warm = pool.call(_run, handle, str(tmp_path), 1)
        assert carries == [False, True, False] and warm == first
        with pytest.raises(BrokenProcessPool):
            pool.submit(os._exit, 1).result(WAIT)
        del carries[:]
        second = pool.call(_run, handle, str(tmp_path), 2)
        # The new worker missed, was sent the blob, unpickled it once.
        assert carries == [False, True]
        assert second[0] != first[0] and second[1] == 1
    assert _PICKLED["after-restart"] == 1
    assert {p.read_text() for p in tmp_path.iterdir()} == {"x"}


def test_submit_carries_the_blob_it_cannot_be_asked_for(tmp_path):
    handle = Shipped(_Counted("submitted"))
    with PersistentPool(1) as pool:
        for index in range(2):
            _, count = pool.submit(
                _run, handle, str(tmp_path), index).result(WAIT)
            assert count == 1


def _inside_a_span() -> bool:
    return active_span() is not None


def test_workers_do_not_inherit_the_span_the_pool_forked_under():
    # The executor forks inside its first submit, and a fork copies
    # the submitting thread's context variables: every trace site in
    # every later task would record into a dead copy of this trace.
    with Tracer().trace("forked-under"):
        assert _inside_a_span()
        with PersistentPool(1) as pool:
            assert pool.submit(_inside_a_span).result(WAIT) is False
            assert pool.call(_inside_a_span) is False
            assert pool.call(abs, -1) == 1

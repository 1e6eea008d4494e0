"""The ``Shipped`` wire protocol, counted (DESIGN.md §6).

A handle crosses the pipe bare; the pool records what each worker
holds and writes every task with what its worker lacks, so one task is
written per call and a blob crosses once per worker.
``tests/test_parallel_pool.py`` pins what the service ships; this file
counts what the protocol itself does, at the pipe.
"""

from __future__ import annotations

import gc
import os
import pickle
import threading
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing.connection import Connection
from pathlib import Path

import pytest

from repro.parallel.pool import PersistentPool, Shipped
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
    """One task: a side effect *first*, then the resolve."""
    with open(Path(directory, f"task-{index}"), "a") as log:
        log.write("x")
    if isinstance(handle, _Nested):
        handle = handle.deep[0]["handle"]
    obj = handle.resolve()
    return os.getpid(), _UNPICKLED[obj.name]


def _resolve_then_raise(handle):
    handle.resolve()
    raise LookupError("after the resolve")


def _written(monkeypatch):
    """Every task the parent writes into a worker's pipe, as
    ``(pipe, keys whose blob it carries)``."""
    written, real, parent = [], Connection.send_bytes, os.getpid()

    def spy(conn, data, *args):
        if data and os.getpid() == parent:  # not a stop, not an answer
            _, parts, _ = pickle.loads(data)
            written.append((id(conn), {
                key for key, (blob, _) in parts.items() if blob is not None}))
        return real(conn, data, *args)

    monkeypatch.setattr(Connection, "send_bytes", spy)
    return written


@pytest.mark.parametrize("wrap", [
    lambda handle: handle,
    lambda handle: _Nested(deep=[{"handle": handle}]),
], ids=["argument", "nested"])
def test_a_blob_crosses_once_per_worker_and_each_task_runs_once(
        tmp_path, monkeypatch, wrap):
    name = f"counted-{os.path.basename(tmp_path)}"
    handle = Shipped(_Counted(name))
    key = handle.key
    tasks, workers = 12, 2
    with PersistentPool(workers) as pool:
        written = _written(monkeypatch)
        answers = [
            pool.call(_run, wrap(handle), str(tmp_path), index)
            for index in range(tasks)]
        # One write per call; the blob rode the first one only.
        assert [keys for _, keys in written] == \
            [{key}] + [set()] * (tasks - 1)
    # Unpickled once in every worker that ran a task, however many.
    assert {count for _, count in answers} == {1}
    assert 1 <= len({pid for pid, _ in answers}) <= workers
    # Pickled once in the parent; the key never moved.
    assert _PICKLED[name] == 1 and handle.key == key
    # Every task ran exactly once.
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(f"task-{i}" for i in range(tasks))
    assert {p.read_text() for p in tmp_path.iterdir()} == {"x"}


def test_n_calls_on_two_workers_write_n_tasks_and_a_blob_once_each(
        tmp_path, monkeypatch):
    name = "two-workers"
    handle = Shipped(_Counted(name))
    calls, barrier = 40, threading.Barrier(2)

    def caller(pool, first):
        barrier.wait()  # both callers in flight: both workers start
        return [pool.call(_run, handle, str(tmp_path), index)
                for index in range(first, calls, 2)]

    with PersistentPool(2) as pool:
        written = _written(monkeypatch)
        threads = [threading.Thread(target=caller, args=(pool, first))
                   for first in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WAIT)
        answers = [pool.call(_run, handle, str(tmp_path), calls + i)
                   for i in range(2)]
    assert len(written) == calls + 2
    blobs = Counter(pipe for pipe, keys in written if keys)
    assert set(blobs.values()) == {1} and 1 <= len(blobs) <= 2
    assert all(keys <= {handle.key} for _, keys in written)
    assert {count for _, count in answers} == {1}
    assert len(list(tmp_path.iterdir())) == calls + 2


def test_a_bare_handle_is_small_and_says_so_when_unknown():
    handle = Shipped(_Counted("bare" * 4096))
    wire = pickle.dumps(handle, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(handle.blob) > 16_000 and len(wire) < 200
    arrived = pickle.loads(wire)
    assert (arrived.key, arrived.blob) == (handle.key, None)
    with pytest.raises(KeyError):
        arrived.resolve()


def test_a_fresh_worker_is_sent_the_blob_again(tmp_path, monkeypatch):
    handle = Shipped(_Counted("after-restart"))
    with PersistentPool(1) as pool:
        written = _written(monkeypatch)
        first = pool.call(_run, handle, str(tmp_path), 0)
        warm = pool.call(_run, handle, str(tmp_path), 1)
        assert [keys for _, keys in written] == [{handle.key}, set()]
        assert warm == first
        with pytest.raises(BrokenProcessPool):
            pool.submit(os._exit, 1).result(WAIT)
        del written[:]
        second = pool.call(_run, handle, str(tmp_path), 2)
        # The dead worker took its record along: its replacement was
        # sent the blob with the task and unpickled it once.
        assert [keys for _, keys in written] == [{handle.key}]
        assert second[0] != first[0] and second[1] == 1
    assert _PICKLED["after-restart"] == 1
    assert {p.read_text() for p in tmp_path.iterdir()} == {"x"}


def test_submit_and_call_send_a_blob_the_same_once(tmp_path, monkeypatch):
    handle = Shipped(_Counted("submitted"))
    with PersistentPool(1) as pool:
        written = _written(monkeypatch)
        _, count = pool.submit(_run, handle, str(tmp_path), 0).result(WAIT)
        assert count == 1
        assert pool.call(_run, handle, str(tmp_path), 1)[1] == 1
    assert [keys for _, keys in written] == [{handle.key}, set()]


def test_a_task_that_raises_leaves_the_record_as_it_was(
        tmp_path, monkeypatch):
    handle = Shipped(_Counted("raised"))
    with PersistentPool(1) as pool:
        written = _written(monkeypatch)
        with pytest.raises(LookupError, match="after the resolve"):
            pool.call(_resolve_then_raise, handle)
        # Sent again, since the worker never answered for it; the
        # worker already holds the key, so it ignores the blob.
        assert pool.call(_run, handle, str(tmp_path), 0)[1] == 1
        assert pool.call(_run, handle, str(tmp_path), 1)[1] == 1
    assert [keys for _, keys in written] == \
        [{handle.key}, {handle.key}, set()]


def _memo_keys():
    from repro.parallel.pool import _WORKER_MEMO

    return sorted(_WORKER_MEMO)


def test_a_parent_side_resolve_leaves_a_later_worker_nothing():
    """Resolving a handle in the parent used to write the worker memo:
    every worker forked later inherited the entry, and since no worker
    record held it no drop ever named it."""
    handle = Shipped({"x": 1})
    assert handle.resolve() is handle.resolve()
    assert handle.resolve() == {"x": 1}
    del handle
    gc.collect()
    with PersistentPool(1) as pool:
        assert pool.call(_memo_keys) == []


def test_a_worker_drops_a_handle_the_parent_dropped(tmp_path):
    kept, gone = Shipped(_Counted("kept")), Shipped(_Counted("gone"))
    with PersistentPool(1) as pool:
        assert pool.call(_memo_keys) == []
        pool.call(_run, kept, str(tmp_path), 0)
        pool.call(_run, gone, str(tmp_path), 1)
        assert pool.call(_memo_keys) == sorted([kept.key, gone.key])
        (worker,) = pool._idle
        assert sorted(worker.held) == sorted([kept.key, gone.key])
        del gone
        gc.collect()
        # The next task, whatever it names, carries the drop.
        assert pool.call(_memo_keys) == [kept.key]
        assert list(worker.held) == [kept.key]
        # What is still held is not sent again.
        assert pool.call(_run, kept, str(tmp_path), 2)[1] == 1


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

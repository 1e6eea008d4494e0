"""Worker-count resolution and the one process-pool protocol (§6).

This module is the dependency-free floor of :mod:`repro.parallel`: it
depends only on the standard library and :mod:`repro.errors`, so any
layer may import it.

Worker counts resolve through one rule everywhere: an explicit
argument wins, otherwise the ``REPRO_WORKERS`` environment variable,
otherwise serial execution. Running the test suite under
``REPRO_WORKERS=4`` therefore exercises every pool-aware code path
without touching a single call site.

Every place the library leaves the process does so through
:class:`PersistentPool` — the only owner of a
:class:`~concurrent.futures.ProcessPoolExecutor` — and its two
protocol pieces: :class:`Shipped`, the ship-once handle (the parent
pickles an object once; each worker unpickles it once), and
:meth:`PersistentPool.call`, one task run for its answer.

The wire protocol, stated once. A task crosses as ``(payload, keys,
blobs)``: the pickled call, in which every :class:`Shipped` handle —
at any depth — is *bare* (its key, no blob); the keys of the handles
it names; and the blobs the parent chose to send along. The worker
(:func:`_run_call`) resolves before it runs: if it has never been sent
one of the keys it raises :class:`NotShipped` without unpickling the
call, so a missed task has had no side effect, and ``call`` — the one
place that reads answers — sends that task again with its blobs. A
blob therefore crosses once per worker that needs it, not once per
task. Worker code never touches a lock it inherited from the parent
(the pool forks while other threads hold theirs).
"""

from __future__ import annotations

import contextvars
import io
import itertools
import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..errors import ConfigurationError, ServiceClosedError, ServiceError

#: Environment variable supplying the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(
    workers: Optional[int] = None, *, default: int = 1
) -> int:
    """The effective worker count for a parallel-capable call site.

    ``workers`` wins when given; otherwise :data:`WORKERS_ENV` is
    consulted; otherwise ``default`` (serial). Always >= 1.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                raise ConfigurationError(
                    f"{WORKERS_ENV}={raw!r} is not an integer") from None
        else:
            workers = default
    if workers < 1:
        raise ConfigurationError(
            f"worker count must be >= 1, got {workers}")
    return int(workers)


def thread_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    workers: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``items`` preserving order.

    With one worker this is a plain loop; otherwise a thread pool.
    Threads overlap only where the work leaves the GIL: waiting on a
    pool worker does; a Phase-1 build does not (training is ~70 small
    numpy calls a step — two builds on two threads measured 1.97x the
    serial wall), and neither does scoring a confirm batch (tens of µs
    of Python per 8 frames, less than starting the threads costs).
    Results are returned in input order either way, so callers are
    deterministic regardless of the worker count.
    """
    workers = resolve_workers(workers)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: key -> unpickled object: the one worker-side memo. Pool workers
#: write it in :func:`_run_call`; the parent only when it resolves one
#: of its own handles.
_WORKER_MEMO: Dict[int, object] = {}

_SHIPPED_KEYS = itertools.count()


class NotShipped(LookupError):
    """A worker was handed a bare handle for a key it was never sent."""


class Shipped:
    """A ship-once handle: pickled once here, unpickled once per worker.

    The parent builds one handle per long-lived object (a session
    spec, a shard member) and puts it in every task that needs the
    object, at any depth. Wherever a handle is pickled it crosses
    bare — its key alone; the blob travels beside the task, and only
    when the pool sends it (see the module docstring). A worker calls
    :meth:`resolve` and gets the same object ever after — so state a
    worker hangs off the object (a rebuilt session, a local score
    cache) persists across tasks. A worker that has never seen the key
    (fresh after a pool restart, or simply not yet routed one) says so
    and is sent the blob.
    """

    __slots__ = ("key", "blob")

    def __init__(self, obj):
        #: Unique per parent process, which is the scope of a pool.
        self.key = next(_SHIPPED_KEYS)
        self.blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)

    def __getstate__(self):
        return (self.key,)

    def __setstate__(self, state):
        (self.key,) = state
        self.blob = None

    def resolve(self):
        """The shipped object (worker side)."""
        try:
            return _WORKER_MEMO[self.key]
        except KeyError:
            if self.blob is None:
                raise NotShipped(self.key) from None
            obj = _WORKER_MEMO[self.key] = pickle.loads(self.blob)
            return obj


class _CallPickler(pickle.Pickler):
    """Pickles one call and notes which handles it names."""

    def __init__(self, file):
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self.handles: Dict[int, Shipped] = {}

    def reducer_override(self, obj):
        if isinstance(obj, Shipped):
            self.handles[obj.key] = obj
        return NotImplemented


def _pickle_call(fn, args, kwargs) -> Tuple[bytes, Dict[int, Shipped]]:
    """``(payload, {key: handle named in it})`` for one task."""
    buffer = io.BytesIO()
    pickler = _CallPickler(buffer)
    pickler.dump((fn, args, kwargs))
    return buffer.getvalue(), pickler.handles


def _run_call(payload: bytes, keys: Tuple[int, ...], blobs: Dict[int, bytes]):
    """The worker side of every task: resolve, then run."""
    missing = [
        key for key in keys if key not in _WORKER_MEMO and key not in blobs]
    if missing:
        raise NotShipped(*missing)
    for key, blob in blobs.items():
        if key not in _WORKER_MEMO:
            _WORKER_MEMO[key] = pickle.loads(blob)
    fn, args, kwargs = pickle.loads(payload)
    return fn(*args, **kwargs)


class PersistentPool:
    """A lazily started process pool that survives its workers.

    Adds lazy startup, thread-safe submission, a call that answers a
    miss (:meth:`call`), restart after a worker death and idempotent
    shutdown on top of :class:`~concurrent.futures.ProcessPoolExecutor`.
    The query service keeps one alive for its lifetime so worker-side
    state (see :class:`Shipped`) persists across queries; it is the
    only owner of one in the library.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = resolve_workers(workers)
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        #: Executors dropped because a worker of theirs died. Whatever
        #: a caller believes the *workers* hold (memoized handles, the
        #: score-cache entries it shipped them) is true only while this
        #: number stands still.
        self.restarts = 0

    def submit(self, fn, /, *args, **kwargs):
        """Schedule ``fn(*args, **kwargs)`` on the pool (starts lazily).

        Nothing reads the answer here, so nothing could answer a miss:
        the task carries the blob of every handle it names.

        A worker that died (OOM kill, ``os._exit``) breaks the whole
        executor: its in-flight futures fail with
        :class:`~concurrent.futures.process.BrokenProcessPool` and it
        refuses new work for good. Such an executor is dropped here
        and the task goes to a fresh one — nothing of it had run.
        """
        return self._submit(*_pickle_call(fn, args, kwargs), carry=True)[0]

    def _submit(self, payload, handles, *, carry: bool):
        """``(future, restarts at the time its executor took it)``."""
        task = (_run_call, payload, tuple(handles), {
            key: handle.blob for key, handle in handles.items()
        } if carry else {})
        with self._lock:
            if self._closed:
                raise ServiceClosedError("process pool is shut down")
            if self._executor is not None:
                try:
                    return self._executor.submit(*task), self.restarts
                except BrokenProcessPool:
                    self.restarts += 1
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
            # The executor forks every worker inside its first submit,
            # and a fork copies the submitting thread's context
            # variables — the trace span it happens to be inside, for
            # one. Workers start from an empty context instead.
            return contextvars.Context().run(
                self._executor.submit, *task), self.restarts

    def call(self, fn, /, *args):
        """``fn(*args)`` in a worker; its answer, or what it raised.

        The task goes with its handles bare. A worker that answers
        :class:`NotShipped` is sent it once more with its blobs —
        nothing of the task had run. Any other error re-raises and the
        pool stays usable.

        A worker dying under the task raises a
        :class:`~repro.errors.ServiceError` chaining the
        ``BrokenProcessPool`` — the one translation of a dead worker:
        nothing was recorded, the broken executor is dropped on the
        spot (so :attr:`restarts` has moved by the time the caller
        sees the error) and the pool restarts on its next task, so the
        caller may resubmit. (:meth:`submit` keeps the raw error.)
        """
        task = _pickle_call(fn, args, {})
        future, restarts = self._submit(*task, carry=False)
        if isinstance(future.exception(), NotShipped):
            future, restarts = self._submit(*task, carry=True)
        error = future.exception()
        if isinstance(error, BrokenProcessPool):
            with self._lock:
                if self.restarts == restarts:
                    self._executor = None
                    self.restarts += 1
            raise ServiceError(
                "a pool worker died while the task was in flight; "
                "nothing was recorded, resubmit") from error
        return future.result()

    def shutdown(self, *, wait: bool = True) -> None:
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

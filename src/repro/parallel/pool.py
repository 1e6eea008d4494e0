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
:class:`PersistentPool` — the only code that starts worker processes —
and its two protocol pieces: :class:`Shipped`, the ship-once handle
(the parent pickles an object once; each worker unpickles it once),
and :meth:`PersistentPool.call`, one task run for its answer.

The wire protocol, stated once. Each worker owns one duplex pipe, and
the caller's own thread writes the task to it and reads the answer
back: no relay thread stands between. The pool keeps, per worker, a
record of what it holds of each handle, so a task crosses as
``(payload, parts, dropped)``: the pickled call, in which every
:class:`Shipped` handle — at any depth — is *bare* (its key, no blob);
for each handle the call names, what that worker lacks of it
(:meth:`Shipped.wire`); and the keys the worker holds whose handles
the parent no longer has. A blob therefore crosses once per worker, a
handle that keeps a log (a session spec with its score cache) sends
each worker the tail past what that worker holds, and a worker keeps
nothing the parent let go: it forgets the dropped keys before it runs
the task. The record grows only when the worker answers without
raising, and dies with the worker, so a replacement is sent
everything. Worker code never touches a lock it inherited from the parent
(a worker forks while other threads hold theirs).
"""

from __future__ import annotations

import contextvars
import io
import itertools
import multiprocessing
import os
import pickle
import sys
import threading
import traceback
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..errors import ConfigurationError, ServiceClosedError, ServiceError

#: Environment variable supplying the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count for a parallel-capable call site.

    ``workers`` wins when given; otherwise :data:`WORKERS_ENV` is
    consulted; otherwise 1 (serial). Always >= 1.
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
            workers = 1
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
    deterministic regardless of the worker count. Each item runs in
    its own copy of the caller's :mod:`contextvars` context (one
    context cannot be entered by two threads at once), so work on a
    thread still lands in the caller's active trace span.
    """
    workers = resolve_workers(workers)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    context = contextvars.copy_context()
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(
            lambda item: context.copy().run(fn, item), items))


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: key -> unpickled object: the one worker-side memo, written only in
#: :func:`_run_call`. The parent never writes it (a worker forked later
#: would inherit the entry, and no drop would ever name it).
_WORKER_MEMO: Dict[int, object] = {}

_SHIPPED_KEYS = itertools.count()

#: The parent's handles by key, weakly: a key a worker holds and this
#: no longer does is one the worker is told to drop.
_LIVE: "weakref.WeakValueDictionary[int, Shipped]" = \
    weakref.WeakValueDictionary()


class Shipped:
    """A ship-once handle: pickled once here, unpickled once per worker.

    The parent builds one handle per long-lived object (a session
    spec) and puts it in every task that needs the object, at any
    depth. Wherever a handle is pickled it crosses bare — its key
    alone; what a worker lacks of it travels beside the task (see the
    module docstring). A worker calls :meth:`resolve` and gets the same
    object ever after — so state a worker hangs off the object (a
    rebuilt session, a local score cache) persists across tasks, and
    until the first task a worker runs after this handle is gone.
    """

    __slots__ = ("key", "blob", "_own", "__weakref__")

    def __init__(self, obj):
        #: Unique per parent process, which is the scope of a pool.
        self.key = next(_SHIPPED_KEYS)
        self.blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        #: ``(object,)`` once the parent resolved this handle itself.
        self._own: Optional[tuple] = None
        _LIVE[self.key] = self

    def __getstate__(self):
        return (self.key,)

    def __setstate__(self, state):
        (self.key,) = state
        self.blob = self._own = None

    def wire(self, held):
        """``(blob, tail, held after)`` for a worker that holds ``held``
        of this handle (``None``: nothing): the blob unless it holds
        it, the log entries it lacks (none here; a subclass keeping a
        log sends its tail, which the shipped object's ``merge``
        takes), and what it holds once sent them."""
        return (None if held else self.blob), (), True

    def resolve(self):
        """The shipped object: in a worker, the memo's (a bare handle
        no task has sent raises ``KeyError``); in the parent, its own
        copy, unpickled once and kept on this handle."""
        if self.blob is None:
            return _WORKER_MEMO[self.key]
        if self._own is None:
            self._own = (pickle.loads(self.blob),)
        return self._own[0]


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


def _run_call(
    payload: bytes,
    parts: Dict[int, Tuple[bytes, list]],
    dropped: List[int],
):
    """The worker side of every task: forget what the parent dropped,
    take what was sent, then run."""
    for key in dropped:
        _WORKER_MEMO.pop(key, None)
    for key, (blob, tail) in parts.items():
        if key not in _WORKER_MEMO:  # a blob for a key held is ignored
            _WORKER_MEMO[key] = pickle.loads(blob)
        if tail:
            _WORKER_MEMO[key].merge(tail)
    fn, args, kwargs = pickle.loads(payload)
    return fn(*args, **kwargs)


class _RemoteTraceback(Exception):
    """The worker-side traceback, chained under an error a task raised."""

    def __str__(self) -> str:
        return self.args[0]


def _serve(conn, parent_end) -> None:
    """A worker's life: read a task, run it, write back its outcome.

    The outcome is ``(None, answer)`` or ``(worker traceback, what it
    raised)``. An empty message, or the parent gone, ends the worker.
    """
    # Held here, the parent's end of this pipe would keep the worker
    # from ever reading EOF. (It still holds the parent's ends of the
    # workers forked before it: after a parent's crash the newest
    # worker reads EOF first, and its exit lets the next one read it.)
    parent_end.close()
    while True:
        try:
            task = conn.recv_bytes()
        except (EOFError, OSError):
            return
        if not task:
            return
        try:
            outcome = (None, _run_call(*pickle.loads(task)))
        except BaseException as error:  # noqa: BLE001 - the caller's
            # to raise, SystemExit too: the worker lives on.
            outcome = (traceback.format_exc(), error)
        try:
            answer = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        except Exception as error:  # noqa: BLE001 - cannot cross
            answer = pickle.dumps(
                (traceback.format_exc(), error), pickle.HIGHEST_PROTOCOL)
        conn.send_bytes(answer)


def _unwrap(outcome):
    """The answer in a worker's outcome, or what the task raised."""
    text, value = outcome
    if text is None:
        return value
    value.__cause__ = _RemoteTraceback(text)
    raise value


#: Workers fork, as the standard library's default on Linux does.
#: Spawn would re-import numpy and the library in every worker:
#: ≈0.30 s to start one against ≈5 ms for a fork (DESIGN.md §6).
_START = multiprocessing.get_context(
    "fork" if sys.platform.startswith("linux") else "spawn")

#: Held from a worker's pipe to its fork until the parent has closed
#: the worker's end, so that no other worker, of any pool, inherits
#: it: only then does a worker's death read as EOF in the parent.
_FORK_LOCK = threading.Lock()

#: Seconds a stopped worker gets to exit before it is killed.
_STOP_WAIT = 5.0


class _Worker:
    """One worker process, the parent's end of its pipe and what the
    worker holds: ``{handle key: what Shipped.wire last left it}``."""

    __slots__ = ("process", "conn", "held")

    def __init__(self):
        self.held: Dict[int, object] = {}
        with _FORK_LOCK:
            self.conn, child_end = _START.Pipe(duplex=True)
            try:
                self.process = _START.Process(
                    target=_serve, args=(child_end, self.conn), daemon=True)
                # A fork copies the starting thread's context variables
                # — the trace span it happens to be inside, for one.
                # Workers start from an empty context instead.
                contextvars.Context().run(self.process.start)
            except BaseException:  # the fork failed: no worker owns it
                self.conn.close()
                raise
            finally:
                child_end.close()

    def stop(self, *, kill: bool = False) -> None:
        """End the process (asking first, unless ``kill``) and reap it."""
        if not kill:
            try:
                self.conn.send_bytes(b"")
            except OSError:
                pass  # already gone
            self.process.join(_STOP_WAIT)
        self.conn.close()
        if self.process.exitcode is None:
            self.process.kill()
        self.process.join()
        self.process.close()


class PersistentPool:
    """Worker processes that outlive tasks, each behind its own pipe.

    Adds lazy startup (a worker forks when a task finds no idle one),
    thread-safe calls, a record per worker of the handles it holds,
    replacement of a worker that died and idempotent shutdown. A task
    goes from the calling thread straight into an idle worker's pipe,
    and that thread reads the answer back; no relay thread stands
    between. The query service keeps one alive for its lifetime so
    worker-side state (see :class:`Shipped`) persists across queries;
    it is the only owner of one in the library.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = resolve_workers(workers)
        self._ready = threading.Condition()
        #: Started workers waiting for a task, the warmest last.
        self._idle: List[_Worker] = []
        #: Started and not yet stopped: idle or busy with a task.
        self._live = 0
        self._closed = False

    def _checkout(self) -> _Worker:
        """An idle worker, a new one while fewer than ``workers`` live,
        or the first one to come back."""
        with self._ready:
            while True:
                if self._closed:
                    raise ServiceClosedError("process pool is shut down")
                if self._idle:
                    return self._idle.pop()
                if self._live < self.workers:
                    self._live += 1
                    break
                self._ready.wait()
        try:
            return _Worker()
        except BaseException:
            with self._ready:
                self._live -= 1
                self._ready.notify_all()
            raise

    def _release(self, worker: _Worker) -> None:
        with self._ready:
            closed = self._closed
            if not closed:
                self._idle.append(worker)
                self._ready.notify()
        if closed:
            self._retire(worker)

    def _retire(self, worker: _Worker, *, died: bool = False) -> None:
        """Stop ``worker`` for good, killing it if it ``died``."""
        worker.stop(kill=died)
        with self._ready:
            self._live -= 1
            self._ready.notify_all()

    def _run(self, fn, args, kwargs):
        """Run one task on an idle worker; its outcome.

        The task carries what that worker lacks of every handle it
        names, and the worker's record grows by it once the worker
        answers without raising. It also names the keys the worker
        holds whose handles are gone; they leave the record once the
        worker answers at all (it drops them before anything else). A
        worker found dead at send time (killed while idle) is replaced
        and the task goes to the next one: nothing of it ran. A worker
        that dies under the task raises
        :class:`~concurrent.futures.process.BrokenProcessPool`, and it
        alone is replaced: its siblings keep what they hold.
        """
        payload, handles = _pickle_call(fn, args, kwargs)
        for _ in range(self.workers + 1):
            worker = self._checkout()
            try:
                parts, held = {}, {}
                for key, handle in handles.items():
                    blob, tail, held[key] = handle.wire(worker.held.get(key))
                    if blob is not None or tail:
                        parts[key] = blob, tail
                dropped = [key for key in worker.held if key not in _LIVE]
                worker.conn.send_bytes(pickle.dumps(
                    (payload, parts, dropped), pickle.HIGHEST_PROTOCOL))
            except OSError:
                self._retire(worker, died=True)
                continue
            except BaseException:
                self._retire(worker, died=True)
                raise
            break
        else:
            raise BrokenProcessPool("no pool worker would take the task")
        try:
            answer = worker.conn.recv_bytes()
        except (EOFError, OSError) as error:
            self._retire(worker, died=True)
            raise BrokenProcessPool(
                "a pool worker died while the task was in flight"
            ) from error
        except BaseException:
            # Interrupted: the worker still owes an answer nobody reads.
            self._retire(worker, died=True)
            raise
        try:
            for key in dropped:
                del worker.held[key]
            outcome = pickle.loads(answer)
            if outcome[0] is None:
                worker.held.update(held)
        finally:
            self._release(worker)
        return outcome

    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Run ``fn(*args, **kwargs)`` on the pool; a future holding its
        answer or what it raised (starts lazily).

        The task runs before ``submit`` returns, on this thread's end of
        a worker's pipe, sent as :meth:`call` sends it. A worker dying
        under it leaves the raw
        :class:`~concurrent.futures.process.BrokenProcessPool` in the
        future (:meth:`call` translates it).
        """
        future: Future = Future()
        try:
            outcome = self._run(fn, args, kwargs)
        except ServiceClosedError:
            raise
        except Exception as error:  # noqa: BLE001 - the future's
            future.set_exception(error)
            return future
        try:
            future.set_result(_unwrap(outcome))
        except BaseException as error:  # noqa: BLE001 - the task's own
            future.set_exception(error)
        return future

    def call(self, fn, /, *args):
        """``fn(*args)`` in a worker; its answer, or what it raised.

        Any error the task raises re-raises here and the pool stays
        usable. A worker dying under the task raises a
        :class:`~repro.errors.ServiceError` chaining the
        ``BrokenProcessPool`` — the one translation of a dead worker:
        nothing was recorded, the dead worker is already replaced and
        the caller may resubmit. (:meth:`submit` keeps the raw error.)
        """
        try:
            outcome = self._run(fn, args, {})
        except BrokenProcessPool as error:
            raise ServiceError(
                "a pool worker died while the task was in flight; "
                "nothing was recorded, resubmit") from error
        return _unwrap(outcome)

    def shutdown(self) -> None:
        """Stop every worker once its task is done, and reap it."""
        with self._ready:
            self._closed = True
            idle, self._idle = self._idle, []
            self._ready.notify_all()
        for worker in idle:
            self._retire(worker)
        with self._ready:
            self._ready.wait_for(lambda: self._live == 0)

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

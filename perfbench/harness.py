"""Measurement plumbing shared by the perfbench workloads.

Nothing here knows about a particular workload: a workload produces
:class:`Sample` objects inside a timed region and this module turns
them into the end-to-end metrics named in ``BENCHMARK.json``.

Noise model (measured on the 2-vCPU sizing box, see README.md): the
host flips between a quiet state and one about 1.6x slower on a
sub-second timescale, the share of slow time drifts over minutes, and
now and then the whole guest runs 1.5-3x slower for minutes on end. So
a workload repeats *identical* work, an op's cost is the mean over its
repetitions (:func:`mean_of`), percentiles are taken across distinct
ops, and the caller divides every second by the run's machine factor
(calibration.py), measured the same way between the ops.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence

#: Every BLAS/OpenMP pool is pinned to one thread before numpy loads,
#: so a run's parallelism is exactly what the workload asks for.
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

PRIMARY = "primary"
SECOND = "second"
#: Not an op of the program: one run of the calibration kernel
#: (calibration.py), interleaved with the ops and estimated like them.
CALIBRATION = "calibration"


def pin_threads() -> None:
    """Pin BLAS pools to one thread; call before importing numpy."""
    for name in THREAD_ENV:
        os.environ[name] = "1"
    # Worker counts are the workload's to choose, never the caller's.
    os.environ.pop("REPRO_WORKERS", None)
    os.environ.pop("REPRO_TRACE", None)


@dataclass
class Sample:
    """One timed op execution."""

    #: :data:`PRIMARY` or :data:`SECOND` (the workload's two op kinds),
    #: or :data:`CALIBRATION`.
    kind: str
    #: Identity of the *distinct* op: executions sharing a key did
    #: identical work, and are averaged into the op's cost.
    key: Hashable
    seconds: float
    #: ``QueryReport.speedup`` of the op's report (None: no report).
    speedup: Optional[float] = None
    #: Process CPU seconds spent while the op ran (None: not
    #: attributable to one op, e.g. under concurrent clients).
    cpu: Optional[float] = None
    ok: bool = True


class Budget:
    """When a timed loop stops: a deadline, or a fixed op count.

    The driver's protocol is time-bounded (``--seconds``); ``--ops``
    fixes the count instead so count metrics repeat exactly (tests).
    """

    def __init__(self, seconds: Optional[float] = None,
                 ops: Optional[int] = None):
        if (seconds is None) == (ops is None):
            raise ValueError("give exactly one of seconds / ops")
        self.seconds = seconds
        self.ops = ops
        self._deadline: Optional[float] = None

    def start(self) -> None:
        if self.seconds is not None:
            self._deadline = time.perf_counter() + self.seconds

    def expired(self, done: int) -> bool:
        if self.ops is not None:
            return done >= self.ops
        return time.perf_counter() >= self._deadline

    def split(self, share: float) -> "Budget":
        """A budget for ``share`` of this one (same kind)."""
        if self.ops is not None:
            return Budget(ops=max(1, round(self.ops * share)))
        return Budget(seconds=self.seconds * share)


def quantile(values: Sequence[float], q: float) -> float:
    """The Harrell-Davis estimate of the ``q``-quantile (0 < q < 1).

    A Beta-weighted average of *all* the order statistics. A workload
    has 4 to 32 distinct ops and their costs are gappy (warm_sweep:
    ... 32, 34, 39, 56, 57 ... ms), so the sample median is the mean of
    two ops' costs and jumps by a gap when noise swaps two ranks; this
    estimator moves smoothly.
    """
    from scipy.special import betainc  # numpy loads after pin_threads

    ordered = sorted(values)
    count = len(ordered)
    if not count:
        raise ValueError("quantile of no values")
    edges = betainc((count + 1) * q, (count + 1) * (1.0 - q),
                    [i / count for i in range(count + 1)])
    return sum((edges[i + 1] - edges[i]) * value
               for i, value in enumerate(ordered))


def mean_of(samples: Iterable[Sample], kind: str,
            field: str = "seconds") -> Dict[Hashable, float]:
    """Mean over its good executions, per distinct op of ``kind``.

    ``field`` picks what is averaged: ``seconds`` or ``cpu``.
    """
    values: Dict[Hashable, List[float]] = {}
    for sample in samples:
        value = getattr(sample, field)
        if sample.kind == kind and sample.ok and value is not None:
            values.setdefault(sample.key, []).append(value)
    return {key: statistics.fmean(v) for key, v in values.items()}


def cpu_seconds() -> float:
    """User+sys CPU of this process plus its *live* child processes.

    Live children (a service's pool workers) are read from ``/proc``,
    because ``RUSAGE_CHILDREN`` only counts children already reaped.
    """
    import multiprocessing

    total = time.process_time()
    ticks = os.sysconf("SC_CLK_TCK")
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited between the listing and the read
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # Linux reports KiB


def end_to_end(
    samples: List[Sample],
    *,
    tail_q: float,
    clients: int,
    cpu_per_op: float,
    peak_rss: float,
    setup_seconds: Sequence[float],
    import_seconds: float,
) -> Dict[str, float]:
    """The end-to-end metrics of one run (names as in BENCHMARK.json),
    in measured seconds.

    Latencies are per distinct op, the mean over its repetitions.
    ``ops_per_s`` is the closed loop's throughput at those latencies:
    clients / mean latency (Little's law with no think time).
    """
    primary = mean_of(samples, PRIMARY)
    second = mean_of(samples, SECOND)
    if not primary or not second:
        raise RuntimeError(
            "a run needs at least one good op of each kind; got "
            f"{len(primary)} primary / {len(second)} second")
    speedups = [s.speedup for s in samples if s.speedup is not None]
    return {
        "setup_s": import_seconds + statistics.median(setup_seconds),
        "ops_per_s": clients / statistics.fmean(primary.values()),
        "cpu_s_per_op": cpu_per_op,
        "peak_rss_mb": peak_rss,
        "sim_speedup_x": statistics.fmean(speedups),
        "op_p50_s": quantile(list(primary.values()), 0.5),
        "op_tail_s": quantile(list(primary.values()), tail_q),
        "second_op_s": quantile(list(second.values()), 0.5),
    }


def env_stamp() -> Dict[str, object]:
    """Where a result was measured (stamped on every saved record)."""
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:  # pragma: no cover - scipy is a hard dep of repro
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
        "blas_threads": {
            name: os.environ.get(name) for name in THREAD_ENV},
        "commit": _git_commit(),
    }


def _git_commit() -> Optional[str]:
    """HEAD of the checkout, read without spawning git (None outside
    a repository: the driver's checkout is not one)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None

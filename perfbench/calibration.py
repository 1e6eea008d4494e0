"""The machine-speed calibration every timing is normalised by.

The sizing box (a 2-vCPU guest on a shared host) slows down by 1.5-3x
for minutes at a time, identical work included; no statistic of the
program's own timings survives that. So every workload interleaves,
between its ops and while the program is idle, a fixed kernel that is
*not* the program — numpy and interpreter work shaped like the
program's (small-array math, a dense layer, a large copy, a bytecode
loop) — sized to last about as long as one of its ops. Ops and kernel
then integrate the same slowdown: a run's ``machine factor`` is the
kernel's mean time over its time on the quiet sizing box, and every
reported second is a measured second divided by it — seconds on the
reference machine. On raw samples from ten runs in a noisy spell
(factors 1.0-2.1): mean latency spread 21-41 % raw, 5-11 % normalised.

A slow spell does not slow all code alike (timed alone, the kernel's
parts read 2.2x / 1.8x / 1.8x / 1.55x in one and the same spell), so
each workload also carries a *sensitivity*: the exponent ``a`` in
``op time ~ factor ** a``, fitted once on forty runs per workload
(factors 0.95-2.25) and frozen in workloads.py; a reported second is a
measured one over ``factor ** a``. At factor 1 it changes nothing.

Never edit the kernel: every recorded number is in its units.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

import numpy as np

#: Seconds one unit takes on the quiet sizing box (the reference).
UNIT_REF_SECONDS = 0.0056

_rng = np.random.default_rng(0)
_YY, _XX = np.mgrid[0:24, 0:24].astype(np.float64)
_W1 = _rng.normal(size=(64, 32))
_W2 = _rng.normal(size=(32, 24))
_X = _rng.normal(size=(512, 64))
_BIG = _rng.normal(size=400_000)


def _unit() -> None:
    total = 0.0
    seen = {}
    for i in range(400):
        blob = 0.5 * np.exp(
            -((_XX - (i % 24)) ** 2 + (_YY - (i % 17)) ** 2) / 8.0)
        total += float(blob[3, 4])
        seen[i % 37] = total
    for _ in range(12):
        hidden = np.tanh(_X @ _W1)
        hidden @ _W2
    copy = _BIG.copy()
    copy += 1.0
    count = 0
    for i in range(20_000):
        count += i & 7


def calibrate(units: int) -> float:
    """Wall seconds ``units`` repetitions of the kernel take now."""
    started = time.perf_counter()
    for _ in range(units):
        _unit()
    return time.perf_counter() - started


def machine_factor(samples: Sequence[float], units: int) -> float:
    """How much slower than the reference machine the machine was while
    ``samples`` (seconds of ``units`` repetitions each) were taken."""
    return statistics.fmean(samples) / (units * UNIT_REF_SECONDS)

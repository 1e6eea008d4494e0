"""Shared benchmark helpers, importable from pool workers.

Benchmarks used to pull :func:`run_once` straight out of
``conftest.py``. That module name is special to pytest and ambiguous
on ``sys.path`` (the tests directory has one too), so anything pickled
by reference against it — exactly what a process-pool worker does —
resolves to the wrong module or none at all. Helpers that benchmark
*code* (rather than fixtures) therefore live here under an
unambiguous module name, keeping every ``bench_*`` module safe to use
with a process-lane ``QueryService`` / ``REPRO_WORKERS``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Callable, Dict, Optional

# Re-exported for the bench modules: the affinity-aware CPU count now
# lives in the library (the service's process-lane heuristic uses it).
from repro.parallel.pool import available_cpus  # noqa: F401

#: Where ``BENCH_<name>.json`` summaries land (``results/`` at repo root).
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

_LAST_RUN_SECONDS: Optional[float] = None

#: Summaries written by *this* process, by bench name. A second write
#: for the same name merges into the in-memory payload instead of the
#: on-disk file, so multi-test bench modules accumulate within one
#: pytest run but a fresh run always starts the file over.
_WRITTEN: Dict[str, dict] = {}


def run_once(benchmark, fn, *args, **kwargs):
    """Time one full run of a macro-benchmark."""
    global _LAST_RUN_SECONDS
    started = time.perf_counter()
    try:
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1,
            warmup_rounds=0)
    finally:
        _LAST_RUN_SECONDS = time.perf_counter() - started


def last_run_seconds() -> Optional[float]:
    """Wall seconds of the most recent :func:`run_once` call."""
    return _LAST_RUN_SECONDS


def timed_call(fn, *args, **kwargs):
    """``(value, wall_seconds)`` for one plain call of ``fn``."""
    started = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - started


def count_renders(video) -> Callable[[], int]:
    """Count the frames ``video`` renders from now on.

    Wraps the instance's renderer (every pixel read goes through it)
    and returns a reader of the running total — the streaming benches
    difference it around each event to gate *physical* render work,
    next to the fresh-oracle counters the sessions report themselves.
    """
    render, total = video._render, [0]

    def counting_render(indices):
        total[0] += len(indices)
        return render(indices)

    video._render = counting_render
    return lambda: total[0]


def scale_label(bench_scale=None) -> str:
    """``"bench"`` or ``"quick"`` for a summary's ``scale`` field.

    Derived from the scale object when the test has the fixture (the
    same frame-count cut as ``bench_strict``), from the environment
    otherwise.
    """
    if bench_scale is not None:
        return "bench" if bench_scale.min_frames > 2_000 else "quick"
    name = os.environ.get("REPRO_BENCH_SCALE", "bench").strip().lower()
    return "quick" if name == "quick" else "bench"


def bench_out_path(name: str) -> Path:
    """Where ``BENCH_<name>.json`` goes (``REPRO_BENCH_<NAME>_JSON``
    overrides, e.g. ``REPRO_BENCH_GATEWAY_JSON`` for ``gateway``)."""
    env_key = f"REPRO_BENCH_{name.upper()}_JSON"
    override = os.environ.get(env_key, "").strip()
    if override:
        return Path(override)
    return RESULTS_DIR / f"BENCH_{name}.json"


def _env_block() -> Dict[str, object]:
    """The environment stamp shared by every bench summary."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": available_cpus(),
        "workers": os.environ.get("REPRO_WORKERS"),
        "bench_scale": os.environ.get("REPRO_BENCH_SCALE", "bench"),
    }


def write_bench_result(
    name: str,
    *,
    scale: str,
    seconds: Optional[float] = None,
    margin: Optional[float] = None,
    **metrics,
) -> Path:
    """Write ``results/BENCH_<name>.json`` in the shared schema.

    Every summary carries the same spine — ``bench``, ``scale``,
    ``seconds`` (wall time; repeat writes from one process accumulate),
    ``margin`` (the bench's headroom against its tightest gate, when it
    has one) and an ``env`` stamp — plus the bench's own ``metrics``.
    ``scripts/`` tooling and CI can therefore consume every summary
    uniformly.
    """
    payload = _WRITTEN.get(name)
    if payload is None or payload.get("scale") != scale:
        payload = {
            "bench": name,
            "scale": scale,
            "seconds": 0.0,
            "margin": margin,
            "env": _env_block(),
        }
    if seconds is not None:
        payload["seconds"] = float(payload["seconds"]) + float(seconds)
    if margin is not None:
        payload["margin"] = float(margin)
    for key, value in metrics.items():
        payload[key] = value
    _WRITTEN[name] = payload
    out = bench_out_path(name)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    return out

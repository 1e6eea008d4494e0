#!/usr/bin/env python3
"""What ``import repro`` costs, and which of SciPy it loads.

Every process pays the import before it does any work — a perfbench
run in ``setup_s`` and ``peak_rss_mb``, a forked pool worker in the
pages it inherits — so the import graph is a tested property, not an
accident of which helper a module reached for. The library loads no
SciPy: ``scipy.stats`` and ``scipy.signal`` used to ride along for two
functions and dragged nine more subpackages in with them (0.64 s and
49 MB of a 1.15 s, 113 MB import), and ``scipy.special`` for ``ndtr``
alone (with ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma`` in tow:
0.58 s, 55 MB and 594 modules against 0.28 s, 38 MB and 326 without
it). They are test oracles now — the offline guarantee audit, which
``import repro`` does not load, keeps ``betaincinv`` — and this script
fails if any public SciPy subpackage comes back.

In fresh interpreters it imports ``repro`` and prints the wall time,
peak RSS and module count, then the ten costliest import subtrees by
``-X importtime`` self time (grouped by the first two components of
the dotted name). It exits non-zero if a public ``scipy`` subpackage
not in :data:`ALLOWED` (none) is loaded. ``tests/test_import_graph.py``
runs it in tier-1 (presence only — no timing threshold) and CI prints
its table.

Usage: ``python scripts/import_cost.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The public SciPy subpackages ``import repro`` may load.
ALLOWED = set()

_PROBE = """
import json, resource, sys, time
started = time.perf_counter()
import repro
wall = time.perf_counter() - started
print(json.dumps({
    "wall_s": wall,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "modules": len(sys.modules),
    "scipy": sorted(
        name.split(".")[1] for name, module in sys.modules.items()
        if name.count(".") == 1 and name.startswith("scipy.")
        and not name.split(".")[1].startswith("_")
        and hasattr(module, "__path__")),
}))
"""


def _fresh(*flags: str) -> subprocess.CompletedProcess:
    """Run the probe in a new interpreter with ``src`` on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run(
        [sys.executable, *flags, "-c", _PROBE],
        env=env, capture_output=True, text=True, check=True)


def costliest_subtrees(importtime: str, top: int = 10):
    """``[(prefix, self seconds)]`` from ``-X importtime`` output."""
    cost: Counter = Counter()
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        own, _cumulative, name = line[len("import time:"):].split("|")
        cost[".".join(name.strip().split(".")[:2])] += int(own) / 1e6
    return cost.most_common(top)


def main() -> int:
    probe = json.loads(_fresh().stdout)
    print(f"import repro: {probe['wall_s']:.2f} s wall, "
          f"{probe['maxrss_mb']:.0f} MB peak RSS, "
          f"{probe['modules']} modules")
    print("costliest import subtrees (self time, -X importtime):")
    for prefix, seconds in costliest_subtrees(
            _fresh("-X", "importtime").stderr):
        print(f"  {seconds:7.3f} s  {prefix}")
    print("public scipy subpackages loaded:",
          ", ".join(probe["scipy"]) or "none")
    extra = sorted(set(probe["scipy"]) - ALLOWED)
    if extra:
        print(f"FAIL: import repro loads scipy.{{{', '.join(extra)}}}; "
              f"keep SciPy in tests, as an oracle", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

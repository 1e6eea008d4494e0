#!/usr/bin/env python3
"""Noise-aware comparison of two perfbench records.

    python3 perfbench/compare.py A.json B.json [--record NOISE.json]

``A.json`` / ``B.json`` are ``run.py --all --repeat N --out`` records
(A is the base: the parent commit, or the first of two sets of the same
code). One row per workload x end-to-end metric: each side's median and
quartiles, the ratio with its base, the metric's bound from
``BENCHMARK.json`` and a verdict:

* ``worse``        B's median is worse than A's by more than the bound;
* ``better``       B's median is better than A's by more than either
                   side's own run-to-run spread;
* ``within-bound`` neither;
* ``unresolved``   a side's spread (quartile distance over median) is
                   wider than the bound, so the row proves nothing —
                   unless every run of B beats every run of A.

Per-layer metrics carry no bound; their medians are listed when both
records hold traced runs. Exit status 1 if any row is ``worse`` or
``unresolved``. ``--record`` also writes every spread next to its
bound and fails if a bound is narrower than a spread it must resolve.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Key = Tuple[str, str]  # (workload, metric)


def load_values(path: str, trace: int) -> Dict[Key, List[float]]:
    with open(path) as handle:
        record = json.load(handle)
    values: Dict[Key, List[float]] = {}
    for run in record["runs"]:
        if run["trace"] != trace:
            continue
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(
                metric["value"])
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    # Positive = B is worse, as a share of A's median.
    worse_by = sign * (median_b - median_a) / abs(median_a) \
        if median_a else 0.0
    noise = max(spread(a), spread(b))
    separated = max(sign * x for x in b) < min(sign * x for x in a)
    if noise > bound and not separated:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if separated or -worse_by > noise:
        return "better"
    return "within-bound"


def _cell(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}..{q3:.5g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--record",
                        help="write spread-vs-bound evidence here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    a, b = load_values(args.a, 0), load_values(args.b, 0)
    bad = 0
    evidence = []
    print(f"{'workload':14s} {'metric':14s} {'A median [q1..q3]':>30s} "
          f"{'B median [q1..q3]':>30s} {'B/A':>7s} {'bound':>6s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            row = verdict(a[key], b[key], metric["better"], metric["bound"])
            bad += row in ("worse", "unresolved")
            base, other = quartiles(a[key])[1], quartiles(b[key])[1]
            ratio = other / base if base else float("nan")
            print(f"{workload:14s} {metric['name']:14s} "
                  f"{_cell(a[key]):>30s} {_cell(b[key]):>30s} "
                  f"{ratio:7.3f} {metric['bound']:6.2f}  {row}"
                  f"  (base A={base:.5g} {metric['unit']})")
            evidence.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "bound": metric["bound"],
                "runs": [len(a[key]), len(b[key])],
                "median": [base, other],
                "spread": [spread(a[key]), spread(b[key])],
                "verdict": row,
            })

    layers_a, layers_b = load_values(args.a, 1), load_values(args.b, 1)
    shared = [k for k in layers_a if k in layers_b]
    if shared:
        print("\nper-layer medians (traced runs; no bound)")
        for key in shared:
            base = quartiles(layers_a[key])[1]
            other = quartiles(layers_b[key])[1]
            if base == 0.0 and other == 0.0:
                continue
            ratio = f"{other / base:7.3f}" if base else "    n/a"
            print(f"{key[0]:14s} {key[1]:36s} {base:12.5g} "
                  f"{other:12.5g} {ratio}  (base A={base:.5g})")

    narrow = [e for e in evidence
              if e["metric"] != "setup_s" and max(e["spread"]) > e["bound"]]
    if args.record:
        with open(args.record, "w") as handle:
            json.dump({
                "what": "observed run-to-run spread (quartile distance "
                        "over median) of two sets of runs of the same "
                        "code, next to each metric's bound",
                "a": os.path.basename(args.a),
                "b": os.path.basename(args.b),
                "rows": evidence,
            }, handle, indent=1)
            handle.write("\n")
        for entry in narrow:
            print(f"bound narrower than spread: {entry['workload']} "
                  f"{entry['metric']} bound {entry['bound']} < "
                  f"{max(entry['spread']):.3f}")
        bad += len(narrow)
    print(f"\n{bad} row(s) worse, unresolved or too tightly bound"
          if bad else "\nevery row within its bound")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

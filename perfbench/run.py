#!/usr/bin/env python3
"""perfbench entry point.

One measured run (the driver's protocol; the last stdout line is the
result as one JSON object)::

    python3 perfbench/run.py --workload warm_sweep --seed 7 \\
        --seconds 20 --trace 0

Every workload, each in its own fresh interpreter, with the traced run
and a saved record::

    python3 perfbench/run.py --all --seed 7 --traced --out a.json

``--trace 0`` measures the end-to-end metrics with no wrapper
installed. ``--trace 1`` measures the per-layer metrics: a traced
segment, then an untraced one on the same ops whose ratio is
``trace.overhead_frac``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402
import tracing  # noqa: E402

#: Share of a ``--trace 1`` run spent traced (the rest is the
#: untraced comparison segment).
TRACED_SHARE = 0.6
#: Kernel repetitions in the calibration samples that bracket every
#: set-up pass (a third of a second each).
SETUP_UNITS = 60


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _measure(cls, seed, sizes, budget, rec):
    """Set up, run the timed region and tear down, once per pass.

    Returns ``(workload, setup seconds per pass, machine factor
    during set-up, timed wall)``. The set-up factor comes from
    calibration samples taken right before and after every set-up pass
    (the first one right after the imports): the machine drifts too
    fast for the timed region's factor to hold for set-up. With a real
    recorder the wrappers go in after set-up, unless set-up is where
    the workload builds what the ledger must show (``trace_setup``).
    """
    from calibration import calibrate, machine_factor

    traced = isinstance(rec, tracing.Recorder)
    workload = cls(seed, sizes)
    setups, wall = [], 0.0
    bracket = [calibrate(SETUP_UNITS)]
    for pass_index in range(cls.passes):
        if traced and cls.trace_setup:
            tracing.install(rec)
        started = time.perf_counter()
        workload.setup(rec)
        setups.append(time.perf_counter() - started)
        bracket.append(calibrate(SETUP_UNITS))
        if traced and not cls.trace_setup:
            tracing.install(rec)
        started = time.perf_counter()
        try:
            workload.run(budget.split(1.0 / cls.passes), rec, pass_index)
        finally:
            wall += time.perf_counter() - started
            rec.restore()
            workload.teardown()
    return workload, setups, machine_factor(bracket, SETUP_UNITS), wall


def _verify(workload) -> float:
    started = time.perf_counter()
    workload.verify()
    return time.perf_counter() - started


def _overhead(traced, plain) -> float:
    """Traced over untraced time on the primary ops both segments ran
    (each segment in its own reference seconds)."""
    a = harness.mean_of(traced.samples, harness.PRIMARY)
    b = harness.mean_of(plain.samples, harness.PRIMARY)
    common = set(a) & set(b)
    if not common:
        return 0.0
    ratio = sum(a[k] for k in common) / sum(b[k] for k in common)
    factors = plain.machine_factor() / traced.machine_factor()
    return ratio * factors ** traced.sensitivity - 1.0


def _to_reference(values: dict, declared: list, workload,
                  setup_factor: float = 1.0) -> dict:
    """Measured seconds -> seconds on the reference machine: every
    second is divided by the machine's slowdown (calibration.py) while
    it was measured, raised to the sensitivity of what was measured."""
    factor = workload.machine_factor()
    slowdown = factor ** workload.sensitivity
    special = {
        "setup_s": setup_factor,
        "second_op_s": factor ** workload.second_sensitivity,
    }
    out = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        value = values.get(name, 0.0)
        if unit == "s":
            value /= special.get(name, slowdown)
        elif unit == "1/s":
            value *= slowdown
        out[name] = value
    return out


def run_one(spec: dict, name: str, seed: int, budget: harness.Budget,
            trace: bool, smoke: bool, spans_out=None) -> dict:
    """One run of one workload in this interpreter."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(
            f"perfbench: no program to measure ({src}/repro is missing)")
    sys.path.insert(0, src)
    harness.pin_threads()
    import workloads

    import_seconds = time.perf_counter() - _STARTED
    cls = workloads.WORKLOADS[name]
    sizes = workloads.Sizes.smoke() if smoke else workloads.Sizes.full()
    extra = {}
    if not trace:
        workload, setups, setup_factor, wall = _measure(
            cls, seed, sizes, budget, tracing.NullRecorder())
        peak_rss = harness.peak_rss_mb()  # before the checks allocate
        verify_s = _verify(workload)
        values = harness.end_to_end(
            workload.samples, tail_q=cls.tail_q, clients=workload.clients,
            cpu_per_op=workload.cpu_per_op(), peak_rss=peak_rss,
            setup_seconds=setups, import_seconds=import_seconds)
        declared = spec["end_to_end"]
        samples = workload.samples
    else:
        rec = tracing.Recorder()
        workload, _setups, setup_factor, wall = _measure(
            cls, seed, sizes, budget.split(TRACED_SHARE), rec)
        rec.adopt_orphans()
        plain, *_ = _measure(
            cls, seed, sizes, budget.split(1.0 - TRACED_SHARE),
            tracing.NullRecorder())
        verify_s = _verify(workload)
        values = tracing.layer_metrics(rec)
        values.update(workload.extras(rec))
        values["trace.overhead_frac"] = _overhead(workload, plain)
        declared = spec["per_layer"]
        samples = workload.samples + plain.samples
        extra["traced_ops"] = len(rec.named("op"))
        if spans_out:
            with open(spans_out, "w") as handle:
                json.dump(rec.dump(), handle)
    values = _to_reference(values, declared, workload, setup_factor)
    ops = [s for s in samples if s.kind != harness.CALIBRATION]
    failed = sum(1 for s in ops if not s.ok)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
        # Beyond the driver's four keys (stripped from the last line):
        "workload": name, "seed": seed, "trace": int(trace),
        "machine_factor": workload.machine_factor(),
        "setup_factor": setup_factor, "verify_s": verify_s,
        "timed_wall_s": wall, **extra,
    }


def _print_result(result: dict) -> None:
    print(f"== {result['workload']} seed={result['seed']} "
          f"trace={result['trace']}  ops_attempted={result['attempted']} "
          f"ops_failed={result['failed']}  "
          f"timed={result['timed_wall_s']:.2f}s "
          f"verify_s={result['verify_s']:.2f} "
          f"machine_factor={result['machine_factor']:.3f}")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")


def _spawn(name, seed, args, trace: int) -> dict:
    """One run in a fresh interpreter; returns its full result."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", name, "--seed", str(seed),
               "--trace", str(trace), "--full-result"]
    if args.ops is not None:
        command += ["--ops", str(args.ops)]
    else:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit(
            f"perfbench: {name} (seed {seed}, trace {trace}) exited "
            f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(runs: list) -> None:
    """Median and quartiles of every metric across repeated runs."""
    groups: dict = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            groups.setdefault(
                (run["workload"], run["trace"], name, metric["unit"]),
                []).append(metric["value"])
    print("== across runs: median [q1 .. q3]")
    for (workload, trace, name, unit), values in groups.items():
        if len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        print(f"  {workload:14s} t{trace} {name:34s} "
              f"{median:12.6g} [{q1:.6g} .. {q3:.6g}] {unit}")


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--all", action="store_true",
                        help="every workload, each in a fresh interpreter")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="length of the timed region")
    parser.add_argument("--ops", type=int,
                        help="fixed op count instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="with --all: also make the --trace 1 run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --all: runs per workload, seeds "
                             "SEED, SEED+1, ...")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (tests)")
    parser.add_argument("--out", help="save every run's result as JSON")
    parser.add_argument("--spans", help="with --trace 1: dump the spans")
    parser.add_argument("--full-result", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload / --all")

    if args.workload:
        budget = harness.Budget(ops=args.ops) if args.ops is not None \
            else harness.Budget(seconds=args.seconds)
        result = run_one(spec, args.workload, args.seed, budget,
                         bool(args.trace), args.smoke, args.spans)
        _print_result(result)
        if not args.full_result:
            result = {key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(result))
        return 0

    harness.pin_threads()  # inherited by every run, and stamped
    runs = []
    for repeat in range(args.repeat):
        for name in names:
            for trace in (0, 1) if args.traced else (0,):
                result = _spawn(name, args.seed + repeat, args, trace)
                _print_result(result)
                runs.append(result)
    if args.repeat > 1:
        _summary(runs)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)),
                    exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump({"env": harness.env_stamp(), "runs": runs},
                      handle, indent=1)
    failed = sum(run["failed"] for run in runs)
    if failed:
        print(f"perfbench: {failed} op(s) failed their checks")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

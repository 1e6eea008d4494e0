"""Tests of the benchmark itself (tier-1 does not collect this file).

    python -m pytest perfbench -q

Every run is a fresh interpreter at ``--smoke`` sizes with a fixed op
count, so count metrics are exact and the whole file takes a minute
or two.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Per-layer metrics that are pure counts of work done.
COUNT_METRICS = (
    "video.render_calls", "models.infer_frames", "oracle.label_calls",
    "oracle.confirm_calls", "core.clean_iterations", "service.builds",
)


def run(workload: str, seed: int, trace: int, *, cwd=ROOT,
        script=os.path.join(HERE, "run.py")):
    # A cold op is ~20x a warm one: fewer of them keep the file quick.
    ops = "8" if workload == "cold_archive" else "24"
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed",
         str(seed), "--ops", ops, "--smoke", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=170, cwd=cwd)


def result_of(done) -> dict:
    assert done.returncode == 0, done.stdout
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Traced smoke runs: seed 1 twice ("a", "b") and seed 2 ("c")."""
    return {
        (workload, label): result_of(run(workload, seed, 1))
        for workload in WORKLOADS
        for label, seed in (("a", 1), ("b", 1), ("c", 2))
    }


def check_schema(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_schema(workload):
    result = result_of(run(workload, 1, 0))
    check_schema(result, SPEC["end_to_end"])
    # Never 0: a bound is a share of the parent's median.
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_schema(traced, workload):
    check_schema(traced[workload, "a"], SPEC["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_for_one_seed(traced, workload):
    a, b = traced[workload, "a"], traced[workload, "b"]
    assert a["attempted"] == b["attempted"]
    for name in COUNT_METRICS:
        assert a["metrics"][name] == b["metrics"][name], name


def test_counts_follow_the_seed(traced):
    """Another seed issues another op list, so the work differs.

    Not so where the counted work is the same under every order:
    cold_archive's ops are independent and its dataset fixed, and
    service_mixed's wrappers see only the cold burst (its warm ops
    run in pool workers).
    """
    for workload in ("warm_sweep", "live_window"):
        a, c = traced[workload, "a"], traced[workload, "c"]
        assert any(
            a["metrics"][name] != c["metrics"][name]
            for name in COUNT_METRICS), workload


def test_op_lists_are_a_pure_function_of_the_seed():
    import workloads

    sizes = workloads.Sizes.full()

    def op_list(cls, seed):
        workload = cls(seed, sizes)
        return [getattr(workload, name) for name in
                ("order", "ops", "schedule") if hasattr(workload, name)]

    for cls in workloads.WORKLOADS.values():
        assert op_list(cls, 1) == op_list(cls, 1)
        assert len({repr(op_list(cls, seed)) for seed in range(8)}) > 1


def test_expiry_runs_no_fresh_inference(traced):
    for label in "abc":
        metrics = traced["live_window", label]["metrics"]
        assert metrics["windowed.tick_fresh_inferred"]["value"] == 0
        assert metrics["windowed.tick_self_s"]["value"] > 0


def test_traced_run_sees_the_layers_each_workload_stresses(traced):
    cold = traced["cold_archive", "a"]["metrics"]
    assert cold["models.train_s"]["value"] > 0
    assert cold["trace.layer_coverage_frac"]["value"] >= 0.9
    warm = traced["warm_sweep", "a"]["metrics"]
    for name in ("models.train_s", "video.diff_self_s", "core.phase1_s"):
        assert warm[name]["value"] == 0, name
    assert warm["core.clean_iterations"]["value"] > 0
    service = traced["service_mixed", "a"]["metrics"]
    assert service["service.builds"]["value"] == 2  # smoke: two videos
    assert service["service.cold_makespan_s"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to
    measure: exit non-zero, print no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run("warm_sweep", 1, 0, cwd=tmp_path,
               script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_compare_verdicts():
    import compare

    steady = [1.00, 1.01, 0.99, 1.02, 0.98]
    assert compare.verdict(steady, steady, "lower", 0.1) == "within-bound"
    assert compare.verdict(
        steady, [v * 1.3 for v in steady], "lower", 0.1) == "worse"
    assert compare.verdict(
        steady, [v * 0.7 for v in steady], "lower", 0.1) == "better"
    assert compare.verdict(
        steady, [v * 0.7 for v in steady], "higher", 0.1) == "worse"
    noisy = [1.0, 1.4, 0.7, 1.2, 0.9]
    assert compare.verdict(noisy, noisy, "lower", 0.1) == "unresolved"
    # ...unless every run of B beats every run of A.
    assert compare.verdict(
        noisy, [v * 0.4 for v in noisy], "lower", 0.1) == "better"

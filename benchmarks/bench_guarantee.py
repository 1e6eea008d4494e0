"""The guarantee matrix (ROADMAP item 4): answers checked against truth.

Runs :mod:`repro.experiments.guarantee_audit` over its grid — the three
registered (family, UDF) pairs x k in {5, 10, 50} x thres in {0.8, 0.9,
0.95} x the default and fast configurations, 50 seeded 3 000-frame
videos a cell and 200 for a cell whose bound straddles its threshold —
and writes the committed, root-level ``BENCH_guarantee.json``. Under
``REPRO_BENCH_SCALE=quick`` a smoke-sized grid runs instead and writes
``results/BENCH_guarantee.json``, never the committed matrix.

Gated: Phase 2's own arithmetic — every exactly enumerated confidence
within 1e-9 of the reported one, every sampled share within three
standard errors. The matrix itself is recorded, not gated: a failing
cell is a finding for the next PR (DESIGN.md, "Moving a golden").
"""

import json
import time
from pathlib import Path

from repro.experiments import guarantee_audit
from repro.experiments.guarantee_audit import AuditGrid

from bench_util import scale_label, write_bench_result

#: The committed matrix, at the repository root.
MATRIX = Path(__file__).resolve().parent.parent / "BENCH_guarantee.json"


def _one_cell_a_line(payload: dict) -> str:
    """JSON with one line per cell, so a diff of the matrix reads by
    cell."""
    cells = ",\n".join("  " + json.dumps(cell) for cell in payload["cells"])
    head = json.dumps({**payload, "cells": None}, indent=1)
    return head.replace('"cells": null', '"cells": [\n' + cells + "\n ]") \
        + "\n"


def test_guarantee_matrix():
    quick = scale_label() == "quick"
    started = time.perf_counter()
    result = guarantee_audit.run(AuditGrid.quick() if quick else AuditGrid())
    seconds = time.perf_counter() - started
    print()
    print(guarantee_audit.render(result))
    print(json.dumps(result["summary"], indent=1))
    if quick:
        write_bench_result(
            "guarantee", scale="quick", seconds=seconds, **result)
    else:
        MATRIX.write_text(_one_cell_a_line(
            {"bench": "guarantee", "scale": "bench",
             "seconds": round(seconds, 1), **result}))
    summary = result["summary"]
    assert summary["enumerated_checks"] > 0
    assert summary["enumerated_all_ok"]
    assert summary["sampled_all_ok"]

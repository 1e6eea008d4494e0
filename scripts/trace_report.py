"""Per-span breakdown report over a trace JSONL event log.

Reads the rotated JSONL log a :class:`repro.trace.Tracer` writes
(``REPRO_TRACE_LOG=...`` or ``Tracer(jsonl_path=...)``), aggregates
spans by ``(category, name)`` and prints a breakdown table — count,
total/mean/max wall seconds, total simulated ledger seconds, error
count, and the totals of the spans' work counters (integer attributes
named ``rows*`` / ``blocks_*``: what a Phase-1 ``block_miss`` scored,
featurized and took from the scan, what a ``requantize`` redid or
reused). ``--chrome out.json`` additionally reconstructs the traces and
writes a Chrome ``trace_event`` document (load in ``about://tracing``
or https://ui.perfetto.dev for a flamegraph).

Usage::

    PYTHONPATH=src python scripts/trace_report.py /tmp/trace.jsonl
    PYTHONPATH=src python scripts/trace_report.py /tmp/trace.jsonl \
        --trace t00000003 --chrome /tmp/flame.json

Rotated backups (``<path>.1`` … ``.3``) next to the given file are
included automatically, oldest first, so the report covers the whole
retained window; the log is read through ``repro.trace.log_files`` and
``read_jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.trace import chrome_trace, log_files, read_jsonl


def load_records(path: str) -> List[Dict[str, object]]:
    """Every record of the log at ``path`` and its rotated backups,
    oldest first."""
    files = log_files(path)
    if not files:
        raise FileNotFoundError(f"no trace log at {path!r}")
    return read_jsonl(files)


def span_records(
    records: List[Dict[str, object]], trace_id: Optional[str]
) -> List[Dict[str, object]]:
    spans = [r for r in records if r.get("type") == "span"]
    if trace_id is not None:
        spans = [r for r in spans if r.get("trace_id") == trace_id]
    return spans


#: Span attributes that count work (summed per row of the table).
COUNTER_PREFIXES = ("rows", "blocks_")


def aggregate(
    spans: List[Dict[str, object]]
) -> "OrderedDict[Tuple[str, str], Dict[str, object]]":
    """Per ``(category, name)`` totals, ordered by total wall seconds."""
    rows: Dict[Tuple[str, str], Dict[str, object]] = {}
    for span in spans:
        key = (str(span.get("category")), str(span.get("name")))
        row = rows.setdefault(key, {
            "count": 0, "seconds": 0.0, "max_seconds": 0.0,
            "sim_seconds": 0.0, "errors": 0, "counters": {},
        })
        for name, value in (span.get("attrs") or {}).items():
            if name.startswith(COUNTER_PREFIXES) and type(value) is int:
                row["counters"][name] = \
                    row["counters"].get(name, 0) + value
        duration = float(span.get("duration") or 0.0)
        row["count"] += 1
        row["seconds"] += duration
        row["max_seconds"] = max(row["max_seconds"], duration)
        row["sim_seconds"] += float(span.get("sim_seconds") or 0.0)
        status = str(span.get("status") or "ok")
        if status != "ok":
            row["errors"] += 1
    ordered = OrderedDict(
        sorted(rows.items(), key=lambda item: -item[1]["seconds"]))
    return ordered


def render(rows: "OrderedDict[Tuple[str, str], Dict[str, object]]") -> str:
    header = ("category", "span", "count", "total(s)", "mean(ms)",
              "max(ms)", "sim(s)", "errors", "counters")
    table = [header]
    for (category, name), row in rows.items():
        mean_ms = 1e3 * row["seconds"] / max(row["count"], 1)
        table.append((
            category, name, str(int(row["count"])),
            f"{row['seconds']:.3f}", f"{mean_ms:.2f}",
            f"{row['max_seconds'] * 1e3:.2f}",
            f"{row['sim_seconds']:.3f}", str(int(row["errors"])),
            " ".join(f"{name}={total}"
                     for name, total in sorted(row["counters"].items())),
        ))
    widths = [
        max(len(line[column]) for line in table)
        for column in range(len(header))
    ]
    lines = []
    for index, line in enumerate(table):
        lines.append("  ".join(
            cell.rjust(width) if 2 <= column < len(header) - 1
            else cell.ljust(width)
            for column, (cell, width) in enumerate(zip(line, widths))
        ).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def rebuild_traces(
    records: List[Dict[str, object]], trace_id: Optional[str]
) -> List[Dict[str, object]]:
    """Regroup span records into ``Trace.to_dict()``-shaped dicts."""
    names = {
        r.get("trace_id"): r.get("name", "trace")
        for r in records if r.get("type") == "trace"
    }
    traces: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
    for span in span_records(records, trace_id):
        tid = str(span.get("trace_id"))
        trace = traces.setdefault(tid, {
            "trace_id": tid,
            "name": names.get(tid, "trace"),
            "spans": [],
        })
        trace["spans"].append(span)
    return list(traces.values())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Per-span breakdown over a repro.trace JSONL log.")
    parser.add_argument("log", help="path to the JSONL trace log")
    parser.add_argument(
        "--trace", default=None, metavar="TRACE_ID",
        help="restrict to one trace id (e.g. t00000003)")
    parser.add_argument(
        "--chrome", default=None, metavar="OUT",
        help="also write a Chrome trace_event JSON document to OUT")
    args = parser.parse_args(argv)

    records = load_records(args.log)
    spans = span_records(records, args.trace)
    if not spans:
        scope = f" for trace {args.trace!r}" if args.trace else ""
        print(f"no span records{scope} in {args.log}", file=sys.stderr)
        return 1

    traces = {s.get("trace_id") for s in spans}
    total = sum(float(s.get("duration") or 0.0) for s in spans
                if s.get("parent_id") is None)
    print(f"{len(spans)} spans across {len(traces)} traces, "
          f"{total:.3f}s of root wall time")
    print()
    print(render(aggregate(spans)))

    if args.chrome:
        document = chrome_trace(rebuild_traces(records, args.trace))
        with open(args.chrome, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        print(f"\nchrome trace ({len(document['traceEvents'])} events) "
              f"-> {args.chrome}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Trace exporters: Chrome ``trace_event`` JSON and a rotated JSONL log.

Two consumers, two formats:

* :func:`chrome_trace` renders traces as the Chrome ``trace_event``
  format (load in ``about://tracing`` / Perfetto for a flamegraph).
  Each trace becomes one "process" row; spans are complete ("X")
  events in microseconds; span events become instant ("i") events.
* :class:`JsonlTraceLog` is the durable structured event log: one
  JSON object per line, size-rotated so a long-lived service cannot
  grow a log file without bound. :func:`read_jsonl` over
  :func:`log_files` reads it back (``scripts/trace_report.py`` does).
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Iterable, List, Sequence

__all__ = [
    "JsonlTraceLog", "chrome_trace", "chrome_trace_events", "log_files",
    "read_jsonl"]

#: A log file is rotated before it would pass this size (4 MiB)...
MAX_BYTES = 4 << 20
#: ...to ``<path>.1``, the older ones shifting up to ``<path>.BACKUPS``.
BACKUPS = 3


def chrome_trace_events(traces: Sequence) -> List[Dict[str, object]]:
    """Flatten traces into Chrome ``trace_event`` records.

    Timestamps/durations are microseconds relative to each trace's
    origin; ``pid`` is the trace's ordinal (one flamegraph row per
    trace), ``tid`` is the span depth-independent span id so nested
    spans stack by the viewer's own interval nesting.
    """
    events: List[Dict[str, object]] = []
    for pid, trace in enumerate(traces, start=1):
        data = trace.to_dict() if hasattr(trace, "to_dict") else trace
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"{data['trace_id']} {data['name']}"},
        })
        for span in data["spans"]:
            start_us = float(span["start"]) * 1e6
            args = {
                "sim_seconds": span["sim_seconds"],
                "status": span["status"],
                **(span.get("attrs") or {}),
            }
            events.append({
                "name": span["name"],
                "cat": span["category"],
                "ph": "X",
                "pid": pid,
                "tid": 1,
                "ts": start_us,
                "dur": float(span["duration"]) * 1e6,
                "args": args,
            })
            for event in span.get("events") or ():
                events.append({
                    "name": event["name"],
                    "cat": span["category"],
                    "ph": "i",
                    "s": "t",
                    "pid": pid,
                    "tid": 1,
                    "ts": float(event["at"]) * 1e6,
                    "args": dict(event.get("attrs") or {}),
                })
    return events


def chrome_trace(traces: Sequence) -> Dict[str, object]:
    """The loadable top-level Chrome trace document."""
    return {
        "traceEvents": chrome_trace_events(traces),
        "displayTimeUnit": "ms",
    }


class JsonlTraceLog:
    """Append-only JSONL event log with size-bounded rotation.

    When the active file would exceed :data:`MAX_BYTES` it is rotated
    to ``<path>.1`` (existing backups shifting to ``.2`` …
    ``.BACKUPS``, the oldest dropped) — the standard logrotate
    discipline, with the rename done under the same lock as writes so
    records never split.
    """

    def __init__(self, path):
        self.path = str(path)
        self._lock = threading.Lock()
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        self.written = 0

    def write(self, record: Dict[str, object]) -> None:
        """Append one record (thread-safe; rotates first if needed)."""
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        payload = line.encode("utf-8")
        with self._lock:
            size = (
                os.path.getsize(self.path)
                if os.path.exists(self.path) else 0)
            if size and size + len(payload) > MAX_BYTES:
                self._rotate_locked()
            with open(self.path, "ab") as handle:
                handle.write(payload)
            self.written += 1

    def _rotate_locked(self) -> None:
        oldest = f"{self.path}.{BACKUPS}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for index in range(BACKUPS - 1, 0, -1):
            src = f"{self.path}.{index}"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{index + 1}")
        os.replace(self.path, f"{self.path}.1")


def log_files(path) -> List[str]:
    """The existing files of the log at ``path``, newest first: the
    active file, then its backups."""
    path = str(path)
    candidates = [path] + [f"{path}.{index}" for index in range(1, BACKUPS + 1)]
    return [name for name in candidates if os.path.exists(name)]


def read_jsonl(paths: Iterable[str]) -> List[Dict[str, object]]:
    """Parse records back out of JSONL log files (oldest first when
    given a newest-first :func:`log_files` listing)."""
    records: List[Dict[str, object]] = []
    for path in reversed(list(paths)):
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
    return records

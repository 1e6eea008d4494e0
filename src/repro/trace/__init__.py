"""Deterministic per-query tracing and structured events (DESIGN.md §12)."""

from .core import (
    NULL_TRACER,
    NullTracer,
    Span,
    Trace,
    Tracer,
    activate,
    active_span,
    add_event,
    span,
)
from .exporters import (
    JsonlTraceLog,
    chrome_trace,
    chrome_trace_events,
    log_files,
    read_jsonl,
)

__all__ = [
    "NULL_TRACER",
    "JsonlTraceLog",
    "NullTracer",
    "Span",
    "Trace",
    "Tracer",
    "activate",
    "active_span",
    "add_event",
    "chrome_trace",
    "chrome_trace_events",
    "log_files",
    "read_jsonl",
    "span",
]

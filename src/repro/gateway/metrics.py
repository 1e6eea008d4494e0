"""Prometheus-style metrics for the gateway (DESIGN.md §10).

:class:`GatewayMetrics` is the gateway's counter/histogram registry;
``render()`` produces the ``text/plain; version=0.0.4`` exposition
format served at ``GET /metrics``. The catalog is stated once per
side: the gateway's own counters are the rows of :data:`FAMILIES`
(``everest_gateway_<family>_total``, recorded through
:meth:`GatewayMetrics.count`), the engine-side samples
(``everest_service_*``: queue depth, scheduler totals, Phase-1 cache
counters and hit rate, planned queries, per-tenant fairness charges) are whichever :class:`~repro.service.service.ServiceStats`
fields name a metric in their metadata, lifted at render time. Between
the two sit the ``latency_seconds{op=,quantile=}`` + ``_count`` /
``_sum`` summaries — p50/p95/p99 per operation (query end-to-end,
append, tick).

``parse_metrics_text()`` is the inverse the tests and the load
benchmark reconcile against — counters exported here must equal the
load generator's ground-truth tallies exactly.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from typing import Dict, Iterable, List, Tuple

#: Quantiles exported for every latency summary.
QUANTILES = (0.5, 0.95, 0.99)

#: A parsed sample: (metric name, ((label, value), ...)) -> value.
LabelSet = Tuple[Tuple[str, str], ...]


#: The gateway's counter families in exposition order: family ->
#: (label names, help text), exported as
#: ``everest_gateway_<family>_total``. A new counter is one row here
#: and a :meth:`GatewayMetrics.count` call where the event happens.
FAMILIES: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "queries_submitted": (("tenant",), "Queries accepted per tenant."),
    "queries_completed": (("tenant",), "Queries completed per tenant."),
    "queries_failed": (("tenant",), "Queries that raised per tenant."),
    "queries_rejected": (
        ("tenant", "reason"),
        "Backpressure refusals per tenant and reason code."),
    "appends": (("tenant",), "Streaming appends applied per tenant."),
    "appends_rejected": (
        ("tenant", "reason"),
        "Appends refused before any frame moved, per tenant and reason "
        "code."),
    "append_frames": (
        ("tenant",), "Frames revealed by appends per tenant."),
    "append_errors": (
        ("tenant",),
        "Appends whose refresh pass raised (frames still applied)."),
    # Appends accepted but whose frames did not land. The streaming
    # append contract (DESIGN.md §7) applies every append fully before
    # any refresh error can surface, and nothing increments this
    # family: it is kept for wire compatibility, not as evidence.
    "appends_dropped": (
        ("tenant",), "Appends whose frames failed to land (invariant: 0)."),
    # Completed queries whose end-to-end latency exceeded the
    # gateway's slow-query threshold.
    "slow_queries": (
        ("tenant",),
        "Completed queries over the slow-query latency threshold, per "
        "tenant."),
}


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"'))


def _format_value(value: float) -> str:
    if value != value:  # NaN (empty summary quantiles)
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _sample(name: str, labels, value: float) -> str:
    """One exposition line; ``labels`` is ``(name, value)`` pairs."""
    rendered = ",".join(
        f'{key}="{_escape_label(str(label))}"' for key, label in labels)
    return f"{name}{{{rendered}}} {_format_value(value)}" if rendered \
        else f"{name} {_format_value(value)}"


def _family(name: str, help_text: str, label_names, samples) -> List[str]:
    """HELP, TYPE and sample lines of one counter or gauge family;
    ``samples`` maps label-value tuples to values."""
    kind = "counter" if name.endswith("_total") else "gauge"
    return [
        f"# HELP {name} {help_text}",
        f"# TYPE {name} {kind}",
        *(_sample(name, zip(label_names, labels), samples[labels])
          for labels in sorted(samples)),
    ]


def quantile(sorted_samples: List[float], q: float) -> float:
    """The ``q``-quantile (nearest-rank) of ascending ``samples``."""
    if not sorted_samples:
        return float("nan")
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return sorted_samples[rank - 1]


#: Latency samples a summary keeps per op.
LATENCY_SAMPLES = 65_536


class LatencySummary:
    """Bounded sample set exporting count/sum and p50/p95/p99.

    Samples beyond :data:`LATENCY_SAMPLES` overwrite the buffer
    ring-style — a long-lived gateway holds at most that many floats
    per op, never memory linear in request count. The quantiles then
    describe the most recent window while count and sum stay exact —
    the standard summary trade-off.
    """

    def __init__(self):
        self.count = 0
        self.sum = 0.0
        self._samples: List[float] = []

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.sum += seconds
        if len(self._samples) < LATENCY_SAMPLES:
            self._samples.append(seconds)
        else:
            # count was already incremented: sample N lands in slot
            # (N-1) % size, so the ring truly cycles. (The previous
            # ``count % size`` skipped slot 0 every lap, pinning the
            # oldest sample in the window forever.)
            self._samples[(self.count - 1) % LATENCY_SAMPLES] = seconds

    def samples(self) -> List[float]:
        """The retained window (ring order, not arrival order)."""
        return list(self._samples)

    def quantiles(self) -> Dict[float, float]:
        ordered = sorted(self._samples)
        return {q: quantile(ordered, q) for q in QUANTILES}


class GatewayMetrics:
    """Thread-safe counters + latency summaries, rendered on demand."""

    def __init__(self):
        self._lock = threading.Lock()
        #: family -> label values -> count.
        self._counts: Dict[str, Dict[Tuple[str, ...], int]] = {
            family: {} for family in FAMILIES}
        self._latency: Dict[str, LatencySummary] = {}

    # -- recording -----------------------------------------------------
    def count(self, family: str, *labels: str, amount: int = 1) -> None:
        """Add ``amount`` to one sample of a :data:`FAMILIES` row."""
        if len(labels) != len(FAMILIES[family][0]):
            raise ValueError(
                f"{family} takes labels {FAMILIES[family][0]}, got {labels}")
        with self._lock:
            samples = self._counts[family]
            samples[labels] = samples.get(labels, 0) + amount

    def count_append(self, tenant: str, frames: int) -> None:
        """One applied append and the frames it revealed."""
        self.count("appends", tenant)
        self.count("append_frames", tenant, amount=frames)

    def observe_latency(self, op: str, seconds: float) -> None:
        with self._lock:
            summary = self._latency.get(op)
            if summary is None:
                summary = self._latency[op] = LatencySummary()
            summary.observe(seconds)

    # -- rendering -----------------------------------------------------
    def render(self, service_stats=None) -> str:
        """The Prometheus text exposition for everything recorded.

        ``service_stats`` (a
        :class:`~repro.service.service.ServiceStats`) contributes the
        engine-side gauges: queue depth, scheduler totals, Phase-1
        cache effectiveness and per-tenant fairness charges.
        """
        with self._lock:
            lines: List[str] = []
            for family, (label_names, help_text) in FAMILIES.items():
                lines += _family(
                    f"everest_gateway_{family}_total", help_text,
                    label_names, self._counts[family])
            name = "everest_gateway_latency_seconds"
            for op, summary in sorted(self._latency.items()):
                lines.append(f"# TYPE {name} summary")
                lines.extend(
                    _sample(name, (("op", op), ("quantile", f"{q:g}")), value)
                    for q, value in summary.quantiles().items())
                lines.append(
                    _sample(f"{name}_count", (("op", op),), summary.count))
                lines.append(
                    _sample(f"{name}_sum", (("op", op),), summary.sum))
        if service_stats is not None:
            self._render_service(lines, service_stats)
        return "\n".join(lines) + "\n"

    @staticmethod
    def _render_service(lines: List[str], stats) -> None:
        """The ``ServiceStats`` fields that name a metric, by slot."""
        exported = sorted(
            (f for f in dataclasses.fields(stats) if "metric" in f.metadata),
            key=lambda f: f.metadata["slot"])
        for exported_field in exported:
            value = getattr(stats, exported_field.name)
            per_tenant = isinstance(value, dict)
            lines += _family(
                exported_field.metadata["metric"],
                exported_field.metadata["help"],
                ("tenant",) if per_tenant else (),
                {(tenant,): charge for tenant, charge in value.items()}
                if per_tenant else {(): value})


def parse_metrics_text(text: str) -> Dict[Tuple[str, LabelSet], float]:
    """Parse the exposition format back into ``{(name, labels): value}``.

    The inverse of :meth:`GatewayMetrics.render` for everything it
    emits — the reconciliation path for tests and the load benchmark.
    Raises :class:`ValueError` on a malformed sample line.
    """
    samples: Dict[Tuple[str, LabelSet], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, labels, value = _parse_sample(line)
        samples[(name, labels)] = value
    return samples


def _parse_sample(line: str) -> Tuple[str, LabelSet, float]:
    if "{" in line:
        name, rest = line.split("{", 1)
        label_text, _, value_text = rest.rpartition("} ")
        if not _:
            raise ValueError(f"malformed metric line {line!r}")
        labels = tuple(
            _parse_label(part)
            for part in _split_labels(label_text) if part)
    else:
        parts = line.rsplit(None, 1)
        if len(parts) != 2:
            raise ValueError(f"malformed metric line {line!r}")
        name, value_text = parts
        labels = ()
    return name.strip(), labels, float(value_text)


def _split_labels(text: str) -> Iterable[str]:
    """Split ``k="v",k2="v2"`` at commas outside quoted values."""
    parts, buf, quoted, escaped = [], [], False, False
    for char in text:
        if escaped:
            buf.append(char)
            escaped = False
            continue
        if char == "\\":
            buf.append(char)
            escaped = True
            continue
        if char == '"':
            quoted = not quoted
            buf.append(char)
            continue
        if char == "," and not quoted:
            parts.append("".join(buf))
            buf = []
            continue
        buf.append(char)
    if buf:
        parts.append("".join(buf))
    return parts


def _parse_label(part: str) -> Tuple[str, str]:
    key, _, raw = part.partition("=")
    if not raw.startswith('"') or not raw.endswith('"'):
        raise ValueError(f"malformed label {part!r}")
    value = (
        raw[1:-1]
        .replace(r"\"", '"').replace(r"\n", "\n").replace(r"\\", "\\"))
    return key.strip(), value

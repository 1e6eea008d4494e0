"""Simulated-latency cost model.

The paper reports end-to-end wall-clock times on a GTX1080Ti. Without a
GPU, absolute times are meaningless here, but the paper's *speedups*
are ratios of per-frame model latencies times invocation counts — which
we can account exactly. Every component charges its work to a
:class:`CostModel` ledger using calibrated per-unit latencies
(:data:`DEFAULT_UNIT_COSTS`, chosen to match the hardware ratios the
paper reports: a 5 fps oracle, a ~25x faster specialized CMDN, fast
decode, etc.). Reported "runtime" is then the ledger total, and speedup
is the ratio of ledger totals — preserving the shape of Figures 4-9 and
Table 8.

The ledger is simulated only: it never reads a clock, so it is a pure
function of (video, UDF, config, plan) on every path. Real time spent
in the algorithmic parts (select-candidate) is observed by the
``select`` trace span (:mod:`repro.trace`), never charged here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..errors import ConfigurationError

#: Simulated seconds per unit of work, calibrated to the paper's setup.
DEFAULT_UNIT_COSTS: Dict[str, float] = {
    # YOLOv3-class oracle at ~5 fps (paper Section 1).
    "oracle_infer": 0.2,
    # Depth-estimation oracle (Godard et al.), similar order.
    "depth_oracle_infer": 0.2,
    # Specialized CMDN inference (~125 fps on the paper's GPU).
    "cmdn_infer": 0.008,
    # CMDN training, per sample per epoch. The paper trains its 12-model
    # grid on up to 30000 samples in "less than several minutes", which
    # puts one sample-epoch at roughly a millisecond of GPU time.
    "cmdn_train": 1.2e-3,
    # Video decode per frame (Decord, ~3000 fps).
    "decode": 0.0003,
    # Difference detector per frame (pixel MSE, vectorized).
    "diff_detect": 0.0002,
    # TinyYOLOv3 (~100 fps).
    "tiny_infer": 0.01,
    # HOG + SVM over hundreds of sub-windows per frame (slow, CPU).
    "hog_infer": 0.08,
    # NoScope-style specialized binary classifier inference.
    "specialized_infer": 0.008,
}


@dataclass
class CostEntry:
    """Accumulated work for one ledger key."""

    units: float = 0.0
    seconds: float = 0.0


class CostModel:
    """A ledger of simulated latencies: per-unit charges by key."""

    def __init__(self, unit_costs: Optional[Mapping[str, float]] = None):
        merged = dict(DEFAULT_UNIT_COSTS)
        if unit_costs:
            merged.update(unit_costs)
        for key, value in merged.items():
            if value < 0:
                raise ConfigurationError(
                    f"unit cost for {key!r} must be >= 0, got {value}")
        self.unit_costs: Dict[str, float] = merged
        self._entries: Dict[str, CostEntry] = {}

    def _entry(self, key: str) -> CostEntry:
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = CostEntry()
        return entry

    def charge(self, key: str, units: float = 1.0) -> float:
        """Charge ``units`` of work under ``key``; returns seconds added."""
        if units < 0:
            raise ConfigurationError("units must be >= 0")
        per_unit = self.unit_costs.get(key, 0.0)
        seconds = units * per_unit
        entry = self._entry(key)
        entry.units += units
        entry.seconds += seconds
        return seconds

    def units(self, key: str) -> float:
        return self._entries.get(key, CostEntry()).units

    def seconds(self, key: str) -> float:
        return self._entries.get(key, CostEntry()).seconds

    def total_seconds(self) -> float:
        return sum(entry.seconds for entry in self._entries.values())

    def breakdown(self) -> Dict[str, float]:
        """Seconds per key, sorted descending."""
        items = sorted(
            self._entries.items(), key=lambda kv: kv[1].seconds, reverse=True)
        return {key: entry.seconds for key, entry in items}

    def merge_from(self, other: "CostModel") -> "CostModel":
        """Fold another ledger's charges into this one (in place).

        Entry units and seconds add key-wise; unit costs are left
        untouched (they describe how *future* charges price, not what
        was already spent). Returns ``self`` for chaining. This is how
        per-worker Phase 2 ledgers from a parallel sweep combine into
        one sweep-level ledger without double-counting: each worker
        charges only its own query's work, and the shared Phase 1
        ledger is merged exactly once by the caller.
        """
        for key, entry in other._entries.items():
            mine = self._entry(key)
            mine.units += entry.units
            mine.seconds += entry.seconds
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{k}={e.seconds:.1f}s" for k, e in self._entries.items())
        return f"CostModel({parts})"


def merge_cost_models(
    models: "list[CostModel] | tuple[CostModel, ...]",
    *,
    unit_costs: Optional[Mapping[str, float]] = None,
) -> CostModel:
    """A fresh ledger holding the key-wise sum of ``models``' charges."""
    merged = CostModel(unit_costs)
    for model in models:
        merged.merge_from(model)
    return merged

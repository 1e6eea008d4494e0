"""Query result / report types returned by the engine."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class PhaseBreakdown:
    """Simulated seconds per Table 8 column.

    ``select_candidate`` is always 0.0: select-candidate runs at native
    speed, so its real time is observed by the ``select`` trace span,
    never charged to the simulated ledger.
    """

    label_sample: float = 0.0
    cmdn_training: float = 0.0
    populate_d0: float = 0.0
    select_candidate: float = 0.0
    confirm_oracle: float = 0.0

    @property
    def phase1_seconds(self) -> float:
        return self.label_sample + self.cmdn_training + self.populate_d0

    @property
    def phase2_seconds(self) -> float:
        return self.select_candidate + self.confirm_oracle

    @property
    def total_seconds(self) -> float:
        return self.phase1_seconds + self.phase2_seconds

    def to_dict(self) -> Dict[str, float]:
        return {
            "label_sample": float(self.label_sample),
            "cmdn_training": float(self.cmdn_training),
            "populate_d0": float(self.populate_d0),
            "select_candidate": float(self.select_candidate),
            "confirm_oracle": float(self.confirm_oracle),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "PhaseBreakdown":
        return cls(**{key: float(value) for key, value in data.items()})


@dataclass
class QueryReport:
    """Full record of one Top-K (or Top-K window) query.

    ``answer_ids`` are frame indices for frame queries and window
    indices for window queries; ``window_size`` disambiguates.
    """

    video_name: str
    udf_name: str
    k: int
    thres: float
    window_size: Optional[int]
    num_frames: int

    answer_ids: List[int] = field(default_factory=list)
    answer_scores: List[float] = field(default_factory=list)
    confidence: float = 0.0

    iterations: int = 0
    cleaned: int = 0
    num_tuples: int = 0
    num_retained: int = 0
    oracle_calls: int = 0

    breakdown: PhaseBreakdown = field(default_factory=PhaseBreakdown)
    scan_seconds: float = 0.0

    proxy_hyperparameters: Tuple[int, int] = (0, 0)
    holdout_nll: float = 0.0
    confidence_trace: List[float] = field(default_factory=list)
    selection_examine_fraction: float = 0.0

    @property
    def simulated_seconds(self) -> float:
        return self.breakdown.total_seconds

    @property
    def speedup(self) -> float:
        """Simulated speedup over the naive scan-and-test baseline."""
        total = self.simulated_seconds
        if total <= 0:
            return float("inf")
        return self.scan_seconds / total

    @property
    def cleaned_fraction(self) -> float:
        """Fraction of the video's tuples cleaned during Phase 2."""
        if self.num_tuples == 0:
            return 0.0
        return self.cleaned / self.num_tuples

    def summary(self) -> str:
        """One-line human-readable summary."""
        kind = "windows" if self.window_size else "frames"
        return (
            f"Top-{self.k} {kind} on {self.video_name} "
            f"[{self.udf_name}]: confidence={self.confidence:.3f} "
            f"speedup={self.speedup:.1f}x cleaned={self.cleaned} "
            f"({self.cleaned_fraction:.2%}) iters={self.iterations}"
        )

    # -- persistence ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict (numpy scalars and arrays become builtins)."""
        return {
            "video_name": self.video_name,
            "udf_name": self.udf_name,
            "k": int(self.k),
            "thres": float(self.thres),
            "window_size": (
                None if self.window_size is None else int(self.window_size)),
            "num_frames": int(self.num_frames),
            "answer_ids": [int(i) for i in self.answer_ids],
            "answer_scores": [float(s) for s in self.answer_scores],
            "confidence": float(self.confidence),
            "iterations": int(self.iterations),
            "cleaned": int(self.cleaned),
            "num_tuples": int(self.num_tuples),
            "num_retained": int(self.num_retained),
            "oracle_calls": int(self.oracle_calls),
            "breakdown": self.breakdown.to_dict(),
            "scan_seconds": float(self.scan_seconds),
            "proxy_hyperparameters": [
                int(v) for v in self.proxy_hyperparameters],
            "holdout_nll": float(self.holdout_nll),
            "confidence_trace": [float(c) for c in self.confidence_trace],
            "selection_examine_fraction": float(
                self.selection_examine_fraction),
        }

    def to_json(self, **dumps_kwargs: Any) -> str:
        """Serialize to a JSON string (see :meth:`from_json`)."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "QueryReport":
        data = dict(data)
        data["breakdown"] = PhaseBreakdown.from_dict(
            data.get("breakdown", {}))
        data["proxy_hyperparameters"] = tuple(
            data.get("proxy_hyperparameters", (0, 0)))
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "QueryReport":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

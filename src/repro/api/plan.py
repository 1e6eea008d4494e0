"""Executable query plans.

A :class:`QueryPlan` is the compiled, inspectable form of a fluent
:class:`~repro.api.query.Query`: a frozen record of everything the
executor needs — relation source, cleaning strategy, oracle budget and
unit costs — with none of the machinery. Compiling a plan is cheap and
side-effect free (Phase 1 does not run until the plan is executed), so
callers can ``explain()`` a sweep before paying for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..config import EverestConfig
from ..core.windows import WINDOW_SAMPLE_FRACTION, num_windows


@dataclass(frozen=True)
class QueryPlan:
    """A compiled Top-K query, ready for a :class:`QueryExecutor`.

    ``mode`` is ``"frames"`` or ``"windows"``; window plans carry the
    resolved ``window_size`` / ``window_step`` (the builder fills the
    paper's default step, UDF step / 4, when the user gave none).
    """

    video_name: str
    udf_name: str
    num_frames: int
    mode: str  # "frames" | "windows"
    k: int
    thres: float
    window_size: Optional[int]
    window_step: Optional[float]
    #: Resolved oracle-invocation cap for Phase 2 (None = unbounded).
    oracle_budget: Optional[int]
    #: The engine configuration the executor will run under.
    config: EverestConfig
    #: Resolved per-unit simulated latencies (ledger key -> seconds).
    unit_costs: Dict[str, float]
    #: Sliding-window restriction: disjoint, ascending ``[lo, hi)``
    #: frame-id ranges the cleaner may see (None = whole relation).
    #: One range for single-video windows; one per member (in global
    #: corpus ids) for federated windows. Frames-mode only.
    frame_ranges: Optional[Tuple[Tuple[int, int], ...]] = None
    #: The sliding-window length that produced ``frame_ranges`` (for
    #: ``explain()``; None when the plan is not windowed).
    window_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        # Builder validation should make these unreachable; they guard
        # plans constructed by hand.
        if self.mode not in ("frames", "windows"):
            raise ValueError(f"unknown plan mode {self.mode!r}")
        if self.mode == "windows" and not self.window_size:
            raise ValueError("window plans require window_size")
        if self.mode == "windows" and self.window_step is None:
            raise ValueError("window plans require window_step")
        if self.frame_ranges is not None:
            if self.mode != "frames":
                raise ValueError(
                    "frame_ranges (sliding windows) require frames mode")
            if not self.frame_ranges:
                raise ValueError("frame_ranges must be None or non-empty")
            prev_hi = 0
            for lo, hi in self.frame_ranges:
                if not (0 <= lo < hi <= self.num_frames):
                    raise ValueError(
                        f"frame range [{lo}, {hi}) out of bounds for "
                        f"{self.num_frames} frames")
                if lo < prev_hi:
                    raise ValueError(
                        "frame ranges must be ascending and disjoint")
                prev_hi = hi

    # ------------------------------------------------------------------
    @property
    def relation_source(self) -> str:
        """Human-readable description of the uncertain relation."""
        if self.mode == "windows":
            return (
                f"tumbling-windows(size={self.window_size}, "
                f"step={self.window_step:g})"
            )
        if self.frame_ranges is not None:
            spans = ", ".join(f"[{lo}, {hi})" for lo, hi in self.frame_ranges)
            window = (
                f"{self.window_seconds:g}s" if self.window_seconds is not None
                else "?")
            return f"uncertain-frames(D0) | window({window}: {spans})"
        return "uncertain-frames(D0)"

    @property
    def cleaner_description(self) -> str:
        phase2 = self.config.phase2
        budget = "unbounded" if self.oracle_budget is None \
            else str(self.oracle_budget)
        confirm = (
            f"window-sample({WINDOW_SAMPLE_FRACTION:.0%})"
            if self.mode == "windows" else "oracle-confirm"
        )
        return (
            f"TopKCleaner(batch={phase2.batch_size}, budget={budget}, "
            f"confirm={confirm})"
        )

    @property
    def num_tuples(self) -> int:
        """Tuples in the relation the cleaner will see.

        Exact for window plans; an upper bound for frame plans (the
        difference detector may discard frames, and Phase 1 has not
        run at compile time).
        """
        if self.mode == "windows":
            assert self.window_size is not None
            return num_windows(self.num_frames, self.window_size)
        if self.frame_ranges is not None:
            return sum(hi - lo for lo, hi in self.frame_ranges)
        return self.num_frames

    def _oracle_costs(self) -> Tuple[float, float]:
        confirm = self.unit_costs.get("oracle_confirm", 0.0)
        decode = self.unit_costs.get("decode", 0.0)
        return confirm, decode

    def explain(self) -> str:
        """Render the plan as an indented, human-readable tree."""
        phase1 = self.config.phase1
        labels = phase1.train_sample_size(self.num_frames)
        holdout = phase1.holdout_sample_size(self.num_frames)
        confirm, decode = self._oracle_costs()
        kind = "windows" if self.mode == "windows" else "frames"
        # Frame relations keep only diff-detector-retained frames, a
        # count unknown until Phase 1 runs — report an upper bound.
        bound = "" if self.mode == "windows" else "<= "
        return "\n".join([
            f"QueryPlan: top-{self.k} {kind}, guarantee >= {self.thres:g}",
            f"  source   : video '{self.video_name}' "
            f"({self.num_frames:,} frames) · udf '{self.udf_name}'",
            f"  relation : {self.relation_source} "
            f"[{bound}{self.num_tuples:,} tuples]",
            f"  phase1   : label {labels:,}+{holdout:,} frames, "
            f"train CMDN grid x{len(phase1.cmdn_grid)}, "
            f"diff-detect(mse<{self.config.diff.mse_threshold:g}) "
            f"[cached per session]",
            f"  phase2   : {self.cleaner_description}",
            f"  costs    : oracle={confirm:g}s/frame "
            f"decode={decode:g}s/frame (simulated)",
            f"  seed     : {self.config.seed}",
        ])

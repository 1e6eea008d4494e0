"""Configuration dataclasses shared across the library.

The defaults follow Section 3.5 / Section 4 ("System configurations") of
the paper, scaled down where the paper's values assume hours-long
1080p videos and a GPU:

* training sample size: ``min(0.5% * n, 30000)`` frames (paper default;
  the cap is :data:`MAX_TRAIN_SAMPLES`);
* holdout size: 3000 frames, capped at the training-sample size;
* difference-detector MSE threshold 1e-4 with clip size 30;
* cleaning batch size ``b = 8``;
* hyperparameter grid ``g ∈ {5, 8, 12, 15}``, ``h ∈ {20, 30, 40}``
  (trimmed by default so the numpy trainer stays fast — the full grid
  is :data:`PAPER_CMDN_GRID`).

A value no caller sets to a second value is a named constant next to
its one reader, not a field here: the grid step is the UDF's own
(``ScoringFunction.step``), Gaussian truncation is
``core.uncertain.TRUNCATE_SIGMAS``, the trainer's mini-batch size and
learning rate are ``models.trainer.TRAIN_BATCH_SIZE`` /
``LEARNING_RATE``, a window confirm samples
``core.windows.WINDOW_SAMPLE_FRACTION`` of its frames, and
Select-candidate always early-stops its scan (Equations 7/8), re-sorting
on the paper's schedule: every ``core.select_candidate.RESORT_EVERY``
(10) iterations for the first ``RESORT_WARMUP`` (100).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from .errors import ConfigurationError

#: The paper's full CMDN hyperparameter grid (12 models, Section 3.5).
PAPER_CMDN_GRID: Tuple[Tuple[int, int], ...] = tuple(
    (g, h) for g in (5, 8, 12, 15) for h in (20, 30, 40)
)

#: Reduced grid used by default so pure-numpy training stays interactive.
DEFAULT_CMDN_GRID: Tuple[Tuple[int, int], ...] = ((3, 8), (5, 12), (8, 16))

#: Hard cap on the number of labelled training frames (paper: 30000).
MAX_TRAIN_SAMPLES = 30_000


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class Phase1Config:
    """Configuration for Phase 1 (building the uncertain relation D0)."""

    #: Fraction of frames sampled for oracle labelling. The paper uses
    #: 0.5% capped at 30000; on our ~1000x shorter synthetic videos the
    #: cap never binds, so a slightly higher fraction with a floor keeps
    #: the proxy trainable while the labelling share of total cost stays
    #: in the paper's 2-10% band.
    sample_fraction: float = 0.01
    #: Minimum number of labelled training frames regardless of length.
    min_train_samples: int = 500
    #: Holdout-set size used for model selection (paper: 3000, scaled).
    holdout_samples: int = 300
    #: (num_gaussians, num_hypotheses) grid searched during training.
    cmdn_grid: Sequence[Tuple[int, int]] = DEFAULT_CMDN_GRID
    #: Epochs per candidate model (enough for the sigma head to
    #: calibrate; undertrained sigmas inflate Phase 2 cleaning).
    epochs: int = 40
    #: Use the fast feature-based MDN instead of the conv CMDN.
    use_feature_mdn: bool = True
    #: Restrict the labelling sample (and the sample-size arithmetic) to
    #: the first ``sample_prefix`` frames. ``None`` samples the whole
    #: video — the batch default. Streaming sessions pin this to their
    #: bootstrap segment so a batch run over any longer prefix trains
    #: the byte-identical proxy the live engine carries forward.
    sample_prefix: Optional[int] = None

    def __post_init__(self) -> None:
        _require(0.0 < self.sample_fraction <= 1.0,
                 "sample_fraction must be in (0, 1]")
        _require(self.min_train_samples >= 1, "min_train_samples must be >= 1")
        _require(self.holdout_samples >= 1, "holdout_samples must be >= 1")
        _require(len(self.cmdn_grid) >= 1, "cmdn_grid must not be empty")
        _require(self.epochs >= 1, "epochs must be >= 1")
        _require(self.sample_prefix is None or self.sample_prefix >= 1,
                 "sample_prefix must be None or >= 1")

    def sample_pool(self, num_frames: int) -> int:
        """The number of leading frames labelling may draw from."""
        if self.sample_prefix is None:
            return num_frames
        return min(num_frames, self.sample_prefix)

    def train_sample_size(self, num_frames: int) -> int:
        """Return the paper's ``min(0.5% * n, 30000)`` with a small floor."""
        proportional = int(self.sample_fraction * num_frames)
        size = min(max(proportional, self.min_train_samples),
                   MAX_TRAIN_SAMPLES)
        return min(size, num_frames)

    def holdout_sample_size(self, num_frames: int) -> int:
        """Holdout size, never larger than a third of the video."""
        return max(1, min(self.holdout_samples, num_frames // 3 or 1))


@dataclass(frozen=True)
class DiffDetectorConfig:
    """Configuration of the MSE difference detector (Section 3.5)."""

    #: Frames whose MSE against the clip representative falls below this
    #: threshold are discarded. Pixels are normalized to [0, 1].
    mse_threshold: float = 1e-4
    #: Clip size ``c``; each clip is compared against its middle frame.
    clip_size: int = 30

    def __post_init__(self) -> None:
        _require(self.mse_threshold >= 0, "mse_threshold must be >= 0")
        _require(self.clip_size >= 1, "clip_size must be >= 1")


@dataclass(frozen=True)
class Phase2Config:
    """Configuration for Phase 2 (oracle-in-the-loop cleaning)."""

    #: Batch inference size ``b`` (paper default: 8).
    batch_size: int = 8
    #: Optional hard cap on oracle invocations; ``None`` = unbounded.
    oracle_budget: Optional[int] = None

    def __post_init__(self) -> None:
        _require(self.batch_size >= 1, "batch_size must be >= 1")
        _require(self.oracle_budget is None or self.oracle_budget >= 1,
                 "oracle_budget must be None or >= 1")


@dataclass(frozen=True)
class EverestConfig:
    """Top-level engine configuration bundling both phases."""

    phase1: Phase1Config = field(default_factory=Phase1Config)
    diff: DiffDetectorConfig = field(default_factory=DiffDetectorConfig)
    phase2: Phase2Config = field(default_factory=Phase2Config)
    #: Seed used for sampling decisions inside the engine.
    seed: int = 0

    @staticmethod
    def fast() -> "EverestConfig":
        """A configuration tuned for unit tests and small demos."""
        return EverestConfig(
            phase1=Phase1Config(
                sample_fraction=0.05,
                min_train_samples=128,
                holdout_samples=64,
                cmdn_grid=((3, 16),),
                epochs=25,
            ),
        )

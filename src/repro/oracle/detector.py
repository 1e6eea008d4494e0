"""Simulated deep object detector (the YOLOv3 stand-in).

The paper treats a video relation materialized by an accurate deep CNN
as ground truth (Section 2). Our simulator *defines* the ground truth,
so the accurate detector simply reveals the simulator's annotations —
after paying the oracle's per-frame latency. An optional error model
(miss / false-positive rates, localization jitter) turns the same class
into degraded detectors for baselines such as TinyYOLOv3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..video.frame import BoundingBox, Frame
from .base import ScoringFunction


@dataclass(frozen=True)
class DetectorErrorModel:
    """Controlled imperfection for a simulated detector.

    ``miss_rate`` drops each true object independently;
    ``false_positive_rate`` adds spurious detections per frame
    (Poisson); ``jitter`` perturbs box corners (pixels).
    """

    miss_rate: float = 0.0
    false_positive_rate: float = 0.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.miss_rate < 1.0:
            raise ConfigurationError("miss_rate must be in [0, 1)")
        if self.false_positive_rate < 0.0:
            raise ConfigurationError("false_positive_rate must be >= 0")
        if self.jitter < 0.0:
            raise ConfigurationError("jitter must be >= 0")


PERFECT = DetectorErrorModel()


class SimulatedObjectDetector:
    """Bounding-box detector over synthetic frames.

    With the default (perfect) error model this is the oracle; with a
    lossy error model it emulates cheaper detectors.
    """

    def __init__(
        self,
        object_label: Optional[str] = None,
        error_model: DetectorErrorModel = PERFECT,
        *,
        latency_key: str = "oracle_infer",
    ):
        self.object_label = object_label
        self.error_model = error_model
        self.latency_key = latency_key

    def detect(self, frame: Frame) -> List[BoundingBox]:
        """Detect objects in one frame (label-filtered)."""
        return self.detect_boxes(
            frame.objects, frame_index=frame.index,
            resolution=frame.resolution)

    def detect_boxes(
        self,
        true_boxes: Sequence[BoundingBox],
        *,
        frame_index: int,
        resolution: Tuple[int, int] = (24, 24),
    ) -> List[BoundingBox]:
        """Apply the error model to ground-truth boxes directly.

        Lets batch scanners skip pixel rendering when only annotations
        are needed (the error model depends on the frame index, not the
        pixels).
        """
        boxes = [
            box for box in true_boxes
            if self.object_label is None or box.label == self.object_label
        ]
        em = self.error_model
        if em.miss_rate == 0.0 and em.false_positive_rate == 0.0 \
                and em.jitter == 0.0:
            return boxes

        rng = np.random.default_rng((em.seed, frame_index))
        kept: List[BoundingBox] = []
        for box in boxes:
            if rng.random() < em.miss_rate:
                continue
            if em.jitter > 0.0:
                dx, dy = rng.normal(0.0, em.jitter, 2)
                box = BoundingBox(
                    x=box.x + dx, y=box.y + dy,
                    width=box.width, height=box.height, label=box.label,
                )
            kept.append(box)
        height, width = resolution
        for _ in range(rng.poisson(em.false_positive_rate)):
            cx, cy = rng.uniform(0, width), rng.uniform(0, height)
            size = rng.uniform(2.0, max(3.0, width / 4.0))
            kept.append(BoundingBox(
                x=cx - size / 2, y=cy - size / 2,
                width=size, height=size,
                label=self.object_label or "object",
            ))
        return kept

    def detect_batch(self, frames: Sequence[Frame]) -> List[List[BoundingBox]]:
        return [self.detect(frame) for frame in frames]


@dataclass(frozen=True)
class CountScorer:
    """Picklable frame scorer: score = number of detected objects.

    A plain class (not a closure) so :class:`ScoringFunction` instances
    built from it can cross process boundaries in parallel sweeps.
    """

    model: SimulatedObjectDetector

    def __call__(self, frames: List[Frame]) -> np.ndarray:
        return np.asarray(
            [len(objects) for objects in self.model.detect_batch(frames)],
            dtype=np.float64,
        )


@dataclass(frozen=True)
class CountExactScores:
    """Ground-truth fast path for the perfect counting oracle.

    The default detector is the perfect oracle, so the video's
    ground-truth count array is exactly its output.
    """

    object_label: str

    def __call__(self, video) -> np.ndarray:
        if getattr(video, "object_label", None) == self.object_label:
            return video.truth_array("count")
        return np.zeros(len(video))


def counting_udf(
    object_label: str = "car",
    *,
    detector: Optional[SimulatedObjectDetector] = None,
    cost_key: str = "oracle_infer",
) -> ScoringFunction:
    """The paper's default UDF (Figure 3): score = number of objects."""
    model = detector or SimulatedObjectDetector(object_label)
    exact_fn = CountExactScores(object_label) if detector is None else None
    return ScoringFunction(
        name=f"count[{object_label}]",
        score_frames=CountScorer(model),
        cost_key=cost_key,
        quantization_step=None,
        score_floor=0.0,
        exact_scores_fn=exact_fn,
    )

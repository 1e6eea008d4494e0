"""Difference detector (paper Section 3.5).

Everest discards frames that are too similar to a nearby retained
frame before building the uncertain relation. This (a) removes
uninformative frames and (b) approximates independence between the
retained frames, justifying the x-tuple model.

Following the paper (and NoScope), similarity is mean-squared-error
between pixel arrays. To parallelize, the video is split into clips of
``c`` frames; every frame in a clip is compared against the clip's
middle frame and discarded when the MSE falls below the threshold. The
middle frame is always retained and *represents* the discarded frames,
which is what the window aggregation (Section 3.4) builds its segments
from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..config import DiffDetectorConfig
from .synthetic import SyntheticVideo


@dataclass(frozen=True)
class DiffResult:
    """Output of the difference detector over one video.

    Attributes
    ----------
    retained:
        Sorted frame indices kept for the uncertain relation.
    representative:
        ``representative[i]`` is the retained frame index that stands in
        for frame ``i`` (``i`` itself when ``i`` is retained).
    num_frames:
        Total frames in the source video.
    """

    retained: np.ndarray
    representative: np.ndarray
    num_frames: int

    @property
    def num_retained(self) -> int:
        return int(self.retained.size)


#: Frames the detector renders per ``batch_pixels`` call (rounded down
#: to whole clips): large enough to amortise the call, small enough
#: that a block of float32 pixels stays around a megabyte.
_SCAN_BLOCK = 512

#: ``on_retained(ids, pixels)``: receives, block by block and in frame
#: order, the retained frame ids and their float32 pixels.
RetainedSink = Callable[[np.ndarray, np.ndarray], None]


def process_clip(
    video: SyntheticVideo,
    indices: np.ndarray,
    threshold: float,
    pixels: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Keep mask for one clip: MSE against the middle-frame anchor.

    The single per-clip kernel, shared by the stand-alone detector and
    the maintained :class:`~repro.core.phase1.IncrementalDiff` — their
    bit-equality contract is structural, not a convention between two
    copies. A clip's decisions depend only on its own frames, which is
    what makes incremental maintenance exact.
    ``pixels`` are the clip's already-rendered float32 frames (what
    ``video.batch_pixels(indices)`` returns); omitted, they are
    rendered here.
    """
    if pixels is None:
        pixels = video.batch_pixels(indices)
    pixels = pixels.astype(np.float64)
    mid = len(indices) // 2
    anchor = pixels[mid]
    errors = np.mean((pixels - anchor[None, :, :]) ** 2, axis=(1, 2))
    keep = errors >= threshold
    keep[mid] = True  # the anchor is always retained
    return keep


class DifferenceDetector:
    """MSE-based duplicate-frame suppressor with clip-level splitting."""

    def __init__(self, config: DiffDetectorConfig = DiffDetectorConfig()):
        self.config = config

    def scan(
        self,
        video: SyntheticVideo,
        start: int,
        stop: int,
        retained_mask: np.ndarray,
        representative: np.ndarray,
        on_retained: Optional[RetainedSink] = None,
        render: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        """Decide frames ``[start, stop)`` clip by clip, in place.

        ``start`` must be clip-aligned. Every frame is rendered exactly
        once, a block of whole clips per ``render`` call
        (``video.batch_pixels``, unless the caller already holds some
        of the frames' pixels and renders only the rest); each
        clip is decided by :func:`process_clip` (the paper runs clips
        in parallel; the computation is identical either way) and the
        decisions are written into ``retained_mask`` /
        ``representative``. ``on_retained`` is handed each block's
        retained rows while their pixels are still in hand, so a
        consumer (proxy inference) need not render them again.
        """
        c = self.config.clip_size
        threshold = self.config.mse_threshold
        block = max(1, _SCAN_BLOCK // c) * c
        render = render or video.batch_pixels
        for lo in range(start, stop, block):
            indices = np.arange(lo, min(lo + block, stop), dtype=np.int64)
            pixels = render(indices)
            for s in range(0, indices.size, c):
                clip = indices[s:s + c]
                keep = process_clip(video, clip, threshold, pixels[s:s + c])
                retained_mask[clip] = keep
                representative[clip] = np.where(
                    keep, clip, clip[len(clip) // 2])
            if on_retained is not None:
                kept = retained_mask[indices]
                on_retained(indices[kept], pixels[kept])

    def run(
        self,
        video: SyntheticVideo,
        on_retained: Optional[RetainedSink] = None,
    ) -> DiffResult:
        """Detect near-duplicate frames across the whole video."""
        num_frames = len(video)
        representative = np.empty(num_frames, dtype=np.int64)
        retained_mask = np.zeros(num_frames, dtype=bool)
        self.scan(video, 0, num_frames, retained_mask, representative,
                  on_retained)
        return DiffResult(
            retained=np.flatnonzero(retained_mask),
            representative=representative,
            num_frames=num_frames,
        )

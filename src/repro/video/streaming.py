"""Appendable frame sources: the growing-video abstraction.

A :class:`StreamingVideo` wraps any closed frame source — a
:class:`~repro.video.synthetic.SyntheticVideo` subclass, a
:func:`~repro.video.datasets.build_dataset` stand-in, a Visual-Road
suite member — and exposes only a *prefix* of it. The wrapped source
plays the role of the future: frames beyond the **watermark** exist in
the simulator but have not "arrived" yet, and every read is
bounds-checked against the watermark, so downstream code (Phase 1,
cleaning, metrics) physically cannot peek ahead.

``append(num_frames)`` advances the watermark, revealing the next
frames of the source and recording one :class:`Segment` per append —
the unit the incremental Phase-1 maintainer re-scores and the live
top-k maintainer re-certifies. Because the source is deterministic,
frame ``i`` of a streaming video is bit-identical to frame ``i`` of
the closed source, which is what makes live answers comparable (and,
with a pinned training prefix, bit-identical) to batch re-runs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from ..errors import ConfigurationError, VideoError
from .frame import BoundingBox, Frame
from .synthetic import SyntheticVideo, check_indices


def window_frames_for(seconds: float, fps: float) -> int:
    """Sliding-window length in frames for ``seconds`` of video.

    The single rounding rule shared by every layer (query builder,
    windowed view, corpus clause), so a window given in seconds always
    resolves to the same frame count on both the live and the batch
    side of an equivalence check.
    """
    if isinstance(seconds, bool) or not isinstance(seconds, numbers.Real) \
            or not float(seconds) > 0.0 \
            or not float(seconds) < float("inf"):
        raise ConfigurationError(
            f"window seconds must be a positive finite number, "
            f"got {seconds!r}")
    return max(1, int(round(float(seconds) * float(fps))))


def is_sliding(video) -> bool:
    """Whether ``video`` is a live sliding-window view.

    The one kind of video whose maintained relation covers only
    ``[video.window_lo, len(video))``. Everything closed never slides:
    a batch source has no window, and a sealed snapshot keeps the full
    prefix — the batch reference a windowed answer is compared against
    is a from-scratch run over the whole prefix, restricted per plan.
    """
    return hasattr(video, "window_lo") and not video.sealed


@dataclass(frozen=True)
class Segment:
    """One append: frames ``[start, end)`` arrived together."""

    index: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ConfigurationError(
                f"segment [{self.start}, {self.end}) is empty or negative")

    @property
    def num_frames(self) -> int:
        return self.end - self.start


class StreamingVideo(SyntheticVideo):
    """A growing prefix view over a closed, deterministic source.

    The view is itself a :class:`SyntheticVideo` — ``len()``, ``frame``,
    ``pixels``, ``batch_pixels`` and ``truth_array`` all work — but its
    length is the current watermark and grows with :meth:`append`.
    ``snapshot()`` freezes the current prefix into a sealed view for
    batch reference runs.
    """

    def __init__(
        self,
        source: SyntheticVideo,
        initial_frames: int,
        *,
        sealed: bool = False,
    ):
        if isinstance(source, StreamingVideo):
            raise ConfigurationError(
                "cannot nest StreamingVideo views; wrap the closed source")
        if not 1 <= initial_frames <= len(source):
            raise ConfigurationError(
                f"initial_frames must be in [1, {len(source)}], "
                f"got {initial_frames}")
        super().__init__(
            source.name,
            initial_frames,
            resolution=source.resolution,
            fps=source.fps,
            noise_level=source.noise_level,
            seed=source.seed,
        )
        self.source = source
        self.signal_key = source.signal_key
        self.sealed = bool(sealed)
        self._segments: List[Segment] = [
            Segment(index=0, start=0, end=initial_frames)]

    # ------------------------------------------------------------------
    # Watermark / segment bookkeeping
    # ------------------------------------------------------------------
    @property
    def watermark(self) -> int:
        """Frames that have arrived so far (== ``len(self)``)."""
        return self.num_frames

    @property
    def remaining(self) -> int:
        """Source frames not yet revealed."""
        return len(self.source) - self.num_frames

    @property
    def segments(self) -> List[Segment]:
        """Arrival history, bootstrap segment first."""
        return list(self._segments)

    def append(self, num_frames: int) -> Segment:
        """Reveal the next ``num_frames`` source frames.

        Returns the new :class:`Segment`. Raises
        :class:`~repro.errors.VideoError` on a sealed snapshot or when
        the source is exhausted.
        """
        if self.sealed:
            raise VideoError(
                f"video {self.name!r} is a sealed snapshot; "
                f"append to the live stream instead")
        if num_frames < 1:
            raise ConfigurationError("append needs num_frames >= 1")
        if num_frames > self.remaining:
            raise VideoError(
                f"source {self.name!r} has {self.remaining} frames left, "
                f"cannot append {num_frames}")
        start = self.num_frames
        self.num_frames = start + num_frames
        segment = Segment(
            index=len(self._segments), start=start, end=self.num_frames)
        self._segments.append(segment)
        return segment

    def append_until(self, watermark: int) -> Segment:
        """Advance to an absolute watermark (convenience for replays)."""
        return self.append(watermark - self.num_frames)

    def snapshot(self) -> "StreamingVideo":
        """A sealed copy of the current prefix (for batch reference runs)."""
        frozen = StreamingVideo(self.source, self.num_frames, sealed=True)
        frozen._segments = list(self._segments)
        return frozen

    # ------------------------------------------------------------------
    # Frame access: delegate to the source below the watermark, so every
    # read is bit-identical to the closed video's.
    # ------------------------------------------------------------------
    def pixels(self, index: int) -> np.ndarray:
        return self.source.pixels(self._check_index(index))

    def frame(self, index: int) -> Frame:
        return self.source.frame(self._check_index(index))

    def objects(self, index: int) -> List[BoundingBox]:
        return self.source.objects(self._check_index(index))

    def _signal(self) -> np.ndarray:
        return self.source._signal()[:self.num_frames]

    def batch_pixels(self, indices: Iterable[int]) -> np.ndarray:
        return self.source.batch_pixels(
            check_indices(indices, self.num_frames))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "sealed" if self.sealed else "live"
        return (
            f"StreamingVideo({self.name!r}, watermark={self.num_frames}/"
            f"{len(self.source)}, segments={len(self._segments)}, {state})"
        )

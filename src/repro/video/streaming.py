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

With ``window_seconds`` the view has a second clock: alongside the
watermark it tracks a **horizon** — the stream time up to which
answers must be current. The open window is
``[horizon - window, watermark)``:

* ``append(n)`` reveals frames and advances the horizon to the new
  watermark (inserts slide the window forward);
* ``tick(frames)`` advances the horizon *without* arrivals (pure
  expiry: old frames age out even when nothing new shows up).

Expiry is logical: aged-out frames remain readable (batch reference
runs over the full prefix still work; ledgers still charge for the
whole history, keeping them batch-equivalent), but they leave the
answer set, the maintained relation, and the block-inference cache.
See DESIGN.md §13 for the insert/expiry ordering and the retraction
path. ``window_seconds=None`` is the window that never expires: the
window starts at frame 0, the horizon rides the watermark, and
``tick`` is refused.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable, List, Optional

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


def _frame_count(operation: str, frames) -> int:
    """``frames`` as a positive ``int``: any integral number but a
    ``bool``, refused before a clock event moves anything."""
    if isinstance(frames, bool) or not isinstance(frames, numbers.Integral) \
            or frames < 1:
        raise ConfigurationError(
            f"{operation} needs a positive integer frame count, "
            f"got {frames!r}")
    return int(frames)


def is_sliding(video) -> bool:
    """Whether ``video`` is a live sliding-window view.

    The one kind of video whose maintained relation covers only
    ``[video.window_lo, len(video))``. Everything closed never slides:
    a batch source has no window, and a sealed snapshot keeps the full
    prefix — the batch reference a windowed answer is compared against
    is a from-scratch run over the whole prefix, restricted per plan.
    """
    return isinstance(video, StreamingVideo) and not video.sealed \
        and video.window_frames is not None


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
    batch reference runs. Under ``window_seconds`` the frame set also
    slides (module docstring).
    """

    def __init__(
        self,
        source: SyntheticVideo,
        initial_frames: int,
        *,
        window_seconds: Optional[float] = None,
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
        self.window_seconds = None if window_seconds is None \
            else float(window_seconds)
        #: Window length in frames; None: the window never expires.
        self.window_frames = None if window_seconds is None \
            else window_frames_for(window_seconds, self.fps)
        #: Stream clock, in frames; starts at the bootstrap watermark.
        self.horizon = self.num_frames

    # ------------------------------------------------------------------
    # Watermark / horizon / segment bookkeeping
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

    @property
    def window_lo(self) -> int:
        """First frame id inside the open window."""
        if self.window_frames is None:
            return 0
        return max(0, self.horizon - self.window_frames)

    def append(self, num_frames: int) -> Segment:
        """Reveal the next ``num_frames`` source frames.

        The horizon slides to the new watermark. Returns the new
        :class:`Segment`. Raises
        :class:`~repro.errors.VideoError` on a sealed snapshot or when
        the source is exhausted.
        """
        if self.sealed:
            raise VideoError(
                f"video {self.name!r} is a sealed snapshot; "
                f"append to the live stream instead")
        num_frames = _frame_count("append", num_frames)
        if num_frames > self.remaining:
            raise VideoError(
                f"source {self.name!r} has {self.remaining} frames left, "
                f"cannot append {num_frames}")
        start = self.num_frames
        self.num_frames = start + num_frames
        segment = Segment(
            index=len(self._segments), start=start, end=self.num_frames)
        self._segments.append(segment)
        self.horizon = max(self.horizon, self.num_frames)
        return segment

    def tick(self, frames: int) -> int:
        """Advance the stream clock by ``frames`` without arrivals.

        Frames whose age exceeds the window expire. Refuses to advance
        past the point where the window would no longer contain any
        arrived frame (an empty window has no Top-K answer); returns
        the new horizon.
        """
        if self.sealed:
            raise VideoError(
                f"video {self.name!r} is a sealed snapshot; "
                f"tick the live stream instead")
        if self.window_frames is None:
            raise VideoError(
                f"video {self.name!r} has no sliding window, so nothing "
                f"ever expires; wrap the source with window_seconds=...")
        frames = _frame_count("tick", frames)
        new_horizon = self.horizon + frames
        if new_horizon - self.window_frames >= self.num_frames:
            raise VideoError(
                f"tick({frames}) would empty the window: horizon "
                f"{new_horizon} minus window {self.window_frames} passes "
                f"the watermark {self.num_frames}")
        self.horizon = new_horizon
        return self.horizon

    def snapshot(self) -> "StreamingVideo":
        """A sealed copy of the current prefix (for batch reference
        runs), preserving watermark, horizon and window."""
        frozen = StreamingVideo(
            self.source,
            self.num_frames,
            window_seconds=self.window_seconds,
            sealed=True,
        )
        frozen._segments = list(self._segments)
        frozen.horizon = self.horizon
        return frozen

    # ------------------------------------------------------------------
    # Frame access: delegate to the source below the watermark, so every
    # read is bit-identical to the closed video's.
    # ------------------------------------------------------------------
    def pixels(self, index: int) -> np.ndarray:
        return self.source.pixels(self._check_index(index))

    def frame(self, index: int) -> Frame:
        return self.source.frame(self._check_index(index))

    def frames(self, indices: Iterable[int]) -> List[Frame]:
        """One ``source.frames`` call for the whole batch (the source
        batches or loops by its own rule); a subclass overriding
        :meth:`frame` still has it called once per index."""
        if type(self).frame is not StreamingVideo.frame:
            return [self.frame(i) for i in indices]
        return self.source.frames(check_indices(indices, self.num_frames))

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
            f"StreamingVideo({self.name!r}, "
            f"window=[{self.window_lo}, {self.num_frames}), "
            f"horizon={self.horizon}, watermark={self.num_frames}/"
            f"{len(self.source)}, segments={len(self._segments)}, {state})"
        )

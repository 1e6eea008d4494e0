"""Frame and bounding-box value objects.

A :class:`Frame` couples a frame index with its rendered pixels and the
simulator's ground-truth annotations. Ground truth is carried on the
frame for the *oracle substrate only* — Everest's query pipeline never
reads it directly; it must pay the simulated oracle cost to observe it
(see :mod:`repro.oracle`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned box in pixel coordinates, ``(x, y)`` = top-left."""

    x: float
    y: float
    width: float
    height: float
    label: str = "object"

    @property
    def center(self) -> Tuple[float, float]:
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)


class Frame:
    """One video frame: pixels plus simulator ground truth.

    Pixels are *lazy*: a frame handed out by a video holds the video
    and renders itself on the first read of :attr:`pixels` (then keeps
    the array), so labelling and confirming frames whose UDF only reads
    annotations renders nothing. The array read is exactly
    ``video.pixels(index)``.

    Attributes
    ----------
    index:
        Zero-based frame number within its video.
    pixels:
        Grayscale image as a ``(H, W)`` float array in ``[0, 1]``.
    timestamp:
        Seconds from the start of the video.
    truth:
        Ground-truth scalar signals (``"count"``, ``"distance"``,
        ``"happiness"``, ...). Only oracles should read this.
    objects:
        Ground-truth bounding boxes for the objects present.
    """

    __slots__ = ("index", "timestamp", "truth", "objects",
                 "_pixels", "_video")

    def __init__(
        self,
        index: int,
        pixels: Optional[np.ndarray] = None,
        timestamp: float = 0.0,
        truth: Optional[Dict[str, float]] = None,
        objects: Optional[List[BoundingBox]] = None,
        *,
        video=None,
    ):
        if pixels is None and video is None:
            raise ValueError("a Frame needs pixels or the video to "
                             "render them from")
        self.index = index
        self.timestamp = timestamp
        self.truth = {} if truth is None else truth
        self.objects = [] if objects is None else objects
        self._pixels = pixels
        self._video = video

    @property
    def pixels(self) -> np.ndarray:
        if self._pixels is None:
            self._pixels = self._video.pixels(self.index)
        return self._pixels

    @property
    def resolution(self) -> Tuple[int, int]:
        """The ``(height, width)`` of the pixel array."""
        if self._pixels is None:
            return tuple(self._video.resolution)
        return (int(self._pixels.shape[0]), int(self._pixels.shape[1]))

    def truth_value(self, key: str) -> float:
        """Return a ground-truth signal, raising ``KeyError`` if absent."""
        return self.truth[key]

    def __reduce__(self):
        # A pickled frame carries its pixels, not the video behind them.
        return (Frame, (self.index, self.pixels, self.timestamp,
                        self.truth, self.objects))

    def __repr__(self) -> str:
        return (f"Frame(index={self.index}, timestamp={self.timestamp}, "
                f"truth={self.truth})")

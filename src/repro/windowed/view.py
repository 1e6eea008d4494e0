"""Alias module: ``WindowedVideo`` is the one live view,
:class:`~repro.video.streaming.StreamingVideo` (``window_seconds=None``
is the window that never expires)."""

from ..video.streaming import StreamingVideo as WindowedVideo
from ..video.streaming import window_frames_for

__all__ = ["WindowedVideo", "window_frames_for"]

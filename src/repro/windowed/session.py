"""Sliding-window streaming sessions (DESIGN.md §13).

A :class:`WindowedSession` is a
:class:`~repro.streaming.session.StreamingSession` over a
:class:`~repro.windowed.view.WindowedVideo`: answers cover only the
last ``window_seconds`` of stream time. The window slides under two
kinds of events, each delivering one report per subscription:

* ``append(n)`` — inserts; inherited, the horizon rides the watermark;
* ``tick(frames)`` — expiries; advances the horizon without arrivals,
  retracting aged-out frames from the maintained relation and the
  block-inference cache (the Phase-1 maintainer reads the window edge
  off the video, :mod:`repro.core.phase1`).

Every windowed report is byte-identical to a fresh batch run over the
window snapshot: ``batch_session()`` seals the prefix (horizon
included), and a plain batch query over it compiles to the same
window-restricted plan. Ledgers replay full-prefix charges, because
that is what the batch reference pays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.result import QueryReport
from ..errors import QueryError
from ..streaming.session import StreamingSession
from ..trace import span as trace_span
from ..video.streaming import StreamingVideo
from .view import WindowedVideo

__all__ = ["ExpiryResult", "WindowedSession"]


@dataclass
class ExpiryResult:
    """Everything one expiry ``tick`` changed (the append-side twin of
    :class:`~repro.streaming.session.AppendResult`)."""

    #: Stream clock after the tick, in frames.
    horizon: int
    #: First frame id inside the window after the tick.
    window_lo: int
    #: How many frames the tick advanced the clock.
    ticked_frames: int
    watermark: int
    #: One refreshed report per live subscription, in subscribe order.
    reports: List[QueryReport] = field(default_factory=list)
    #: Physical (cache-miss) work this tick actually paid.
    fresh_confirm_calls: int = 0
    fresh_inferred_frames: int = 0
    wall_seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe summary (the gateway's ``/tick`` payload)."""
        return {
            "horizon": self.horizon,
            "window_lo": self.window_lo,
            "ticked_frames": self.ticked_frames,
            "watermark": self.watermark,
            "reports": [report.to_json() for report in self.reports],
            "fresh_confirm_calls": self.fresh_confirm_calls,
            "fresh_inferred_frames": self.fresh_inferred_frames,
            "wall_seconds": self.wall_seconds,
        }


class WindowedSession(StreamingSession):
    """An appendable session whose answers slide with a time window."""

    def __init__(
        self,
        video,
        scoring,
        *,
        window_seconds: Optional[float] = None,
        initial_frames: Optional[int] = None,
        **kwargs,
    ):
        if isinstance(video, WindowedVideo):
            if window_seconds is not None \
                    and float(window_seconds) != video.window_seconds:
                raise QueryError(
                    f"window_seconds={window_seconds!r} conflicts with "
                    f"the WindowedVideo's window of "
                    f"{video.window_seconds:g}s; pass one or the other")
        elif isinstance(video, StreamingVideo):
            raise QueryError(
                "cannot window an existing StreamingVideo view; wrap "
                "the closed source (or pass a WindowedVideo)")
        else:
            if window_seconds is None:
                raise QueryError(
                    "a windowed session needs window_seconds")
            if initial_frames is None:
                raise QueryError(
                    "open_stream needs initial_frames: the bootstrap "
                    "segment Phase 1 trains on")
            video = WindowedVideo(
                video, initial_frames, window_seconds=window_seconds)
            initial_frames = None
        super().__init__(video, scoring,
                         initial_frames=initial_frames, **kwargs)
        self._expiry_log: List[ExpiryResult] = []

    # ------------------------------------------------------------------
    @property
    def window_seconds(self) -> float:
        return self.video.window_seconds

    @property
    def window_frames(self) -> int:
        return self.video.window_frames

    @property
    def horizon(self) -> int:
        return self.video.horizon

    @property
    def window_lo(self) -> int:
        return self.video.window_lo

    @property
    def expiry_log(self) -> List[ExpiryResult]:
        return list(self._expiry_log)

    # ------------------------------------------------------------------
    def tick(self, frames: int) -> ExpiryResult:
        """Advance the stream clock without arrivals; expire frames.

        The window's lower edge moves forward, evicted inference
        blocks are retracted, and every subscription is refreshed
        against the narrowed relation — one report per tick, under the
        same bookkeeping-before-reraise discipline as ``append``.
        """
        self.phase1()
        started = time.perf_counter()
        before = self.stats.snapshot()
        with trace_span(
                "expiry", category="streaming", frames=frames,
                horizon=self.video.horizon) as expiry_span:
            horizon = self.video.tick(frames)
            self._phase1_cache[self._key] = \
                self._incremental.rebuild_entry()
            if expiry_span is not None:
                expiry_span.set(
                    window_lo=self.video.window_lo,
                    watermark=self.watermark)
        return self._finish_event(
            started, before, self._expiry_log,
            ExpiryResult(
                horizon=horizon,
                window_lo=self.video.window_lo,
                ticked_frames=frames,
                watermark=self.watermark,
            ))

    def _trim_history(self) -> None:
        super()._trim_history()
        limit = self.streaming.max_history
        if limit is not None:
            del self._expiry_log[:-limit]

    # ------------------------------------------------------------------
    def _checkpoint_state(self) -> Dict[str, object]:
        state = super()._checkpoint_state()
        state["expiry_log"] = self._expiry_log
        return state

    def _restore_extra(self, state: Dict[str, object]) -> None:
        self._expiry_log = list(state.get("expiry_log", []))

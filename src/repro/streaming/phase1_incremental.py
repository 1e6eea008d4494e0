"""Streaming-side configuration and work counters (DESIGN.md §7).

The Phase-1 state of a live session is kept by
:class:`~repro.core.phase1.Phase1Maintainer` itself — bootstrap, then
``scan_arrivals`` and ``rebuild_entry`` per append — bit-identical to a
from-scratch batch run over the current prefix (under the pinned
``sample_prefix`` training policy), so the live engine inherits the
batch engine's guarantees verbatim. This module holds what only a
growing video needs beside it: the history bound
(:class:`StreamingConfig`) and the physical-work counters
(:class:`StreamingStats`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ConfigurationError


#: Guards :meth:`StreamingStats.count_fresh_confirms`. Module-level:
#: the stats object is pickled into checkpoints and a lock is not.
_STATS_LOCK = threading.Lock()


@dataclass(frozen=True)
class StreamingConfig:
    """Knobs of a live session."""

    #: Keep only the last N append results / subscription reports
    #: (``None`` = unbounded). Indefinite streams should bound this:
    #: the history (and hence every checkpoint) otherwise grows with
    #: each append. The latest report is always retained.
    max_history: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_history is not None and self.max_history < 1:
            raise ConfigurationError("max_history must be None or >= 1")


@dataclass
class StreamingStats:
    """Physical (cache-miss) work counters for one streaming session.

    Reports carry batch-equivalent ledgers; these counters record what
    the session actually *paid* — the delta-sized work streaming exists
    to expose.
    """

    appends: int = 0
    fresh_label_calls: int = 0
    fresh_confirm_calls: int = 0
    fresh_inferred_frames: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "appends": self.appends,
            "fresh_label_calls": self.fresh_label_calls,
            "fresh_confirm_calls": self.fresh_confirm_calls,
            "fresh_inferred_frames": self.fresh_inferred_frames,
        }

    @property
    def fresh_oracle_calls(self) -> int:
        return self.fresh_label_calls + self.fresh_confirm_calls

    def count_fresh_confirms(self, calls: int) -> None:
        """Add one execution's cache-miss confirmations, atomically:
        any scheduler thread may run a plan on the session mid-event."""
        with _STATS_LOCK:
            self.fresh_confirm_calls += calls

"""Streaming subsystem: maintain top-k answers over growing videos.

This package turns the engine from "query a finished video" into
"maintain answers over a growing one" (DESIGN.md §7):

* the live :class:`~repro.api.session.Session` —
  ``Session.open_stream(...)`` → ``append`` / ``subscribe`` /
  ``checkpoint`` / ``resume`` (``StreamingSession`` is an alias of the
  one session class);
* :mod:`~repro.streaming.phase1_incremental` — the live session's
  history bound and physical-work counters (the Phase-1 maintainer
  itself, incremental difference detection and block-cached proxy
  inference, is :mod:`repro.core.phase1`'s);
* :mod:`~repro.streaming.live_topk` — per-query
  :class:`~repro.streaming.live_topk.LiveTopK` maintainers;
* :mod:`~repro.streaming.store` — the persistent Phase-1 artifact
  store with an atomic, checksum-verified manifest.
"""

from ..core.phase1 import INFER_BLOCK, BlockInferenceCache, IncrementalDiff
from .live_topk import CachingOracle, LiveTopK, ScoreCache
from .phase1_incremental import StreamingConfig, StreamingStats
from .session import AppendResult, StreamingSession
from .store import (
    FORMAT_VERSION,
    read_checkpoint,
    write_checkpoint,
)

__all__ = [
    "AppendResult",
    "BlockInferenceCache",
    "CachingOracle",
    "FORMAT_VERSION",
    "INFER_BLOCK",
    "IncrementalDiff",
    "LiveTopK",
    "ScoreCache",
    "StreamingConfig",
    "StreamingSession",
    "StreamingStats",
    "read_checkpoint",
    "write_checkpoint",
]

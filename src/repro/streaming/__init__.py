"""Streaming subsystem: maintain top-k answers over growing videos.

This package turns the engine from "query a finished video" into
"maintain answers over a growing one" (DESIGN.md §7):

* the live :class:`~repro.api.session.Session` —
  ``Session.open_stream(...)`` → ``append`` / ``subscribe`` /
  ``checkpoint`` / ``resume``;
* :mod:`~repro.streaming.live_topk` — per-query
  :class:`~repro.streaming.live_topk.LiveTopK` maintainers, each
  holding its latest outcome only;
* :mod:`~repro.streaming.store` — the persistent Phase-1 artifact
  store with an atomic, checksum-verified manifest.

The Phase-1 maintainer itself — incremental difference detection and
block-cached proxy inference — is :mod:`repro.core.phase1`'s. A live
session keeps nothing per event it delivered: an event's reports and
fresh work are what its ``append()`` / ``tick()`` returns.
"""

from .live_topk import LiveTopK
from .session import AppendResult
from .store import (
    FORMAT_VERSION,
    read_checkpoint,
    write_checkpoint,
)

__all__ = [
    "AppendResult",
    "FORMAT_VERSION",
    "LiveTopK",
    "read_checkpoint",
    "write_checkpoint",
]

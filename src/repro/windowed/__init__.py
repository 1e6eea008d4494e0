"""Sliding-window standing queries over streams (DESIGN.md §13).

The window slides under inserts (appends) and expiries (ticks); answer
maintenance is O(delta) — the block-aligned incremental Phase 1 of §7
on the insert side, block retraction with cached grid tops on the
expiry side — while every report stays byte-identical to a fresh batch
run over the window snapshot.

    stream = Session.open_stream(video, "count[car]",
                                 initial_frames=5_000,
                                 window_seconds=300)
    live = stream.query().topk(10).guarantee(0.9).subscribe()
    stream.append(900)   # insert: one report, window slides forward
    stream.tick(300)     # expiry: one report, old frames age out
"""

from .session import ExpiryResult

__all__ = ["ExpiryResult"]

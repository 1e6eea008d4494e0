"""Live traffic monitoring: maintain a top-k answer while video arrives.

The batch engine answers "the busiest moments of a *finished* video".
A city traffic desk wants the same answer continuously, over a camera
that never stops: after every arriving chunk, the current Top-5
busiest frames, still certified to the 0.9 probabilistic guarantee —
without re-paying Phase 1 (CMDN training) or re-asking the oracle
about frames it already explained.

This example opens a streaming session over the Table 7 "archie"
stand-in, subscribes a query, feeds the video in chunks, and prints
the per-append economics: each report carries the *batch-equivalent*
cost (what a from-scratch run over the same frames would charge),
while the "fresh" column shows the oracle work the live engine
actually paid — the delta, not the history. Totals are summed from
the results the appends return. A checkpoint at the end shows
`Session.resume` warm-starting with zero fresh oracle calls.

Run:  python examples/live_stream.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import EverestConfig, Session


def main() -> None:
    # A scaled-down stand-in for the 19.7-hour Archie intersection
    # feed; the first quarter is the bootstrap segment Phase 1 trains
    # on, the rest "arrives" in chunks below.
    session = Session.open_stream(
        "archie", "count[car]",
        initial_frames=3_000, min_frames=12_000,
        config=EverestConfig())
    live = (session.query()
            .topk(5)
            .guarantee(0.9)
            .subscribe())

    print(f"bootstrap @ {session.watermark} frames: "
          f"{live.latest.summary()}")
    print()
    header = (f"{'watermark':>10}  {'delta':>6}  {'confidence':>10}  "
              f"{'batch-equiv calls':>17}  {'fresh calls':>11}  "
              f"{'append secs':>11}")
    print(header)
    print("-" * len(header))

    chunk = 1_500
    fresh_calls = batch_equivalent_calls = 0
    while session.video.remaining >= chunk:
        result = session.append(chunk)
        report = live.latest
        fresh_calls += result.fresh_oracle_calls
        batch_equivalent_calls += sum(r.oracle_calls for r in result.reports)
        print(f"{result.watermark:>10,}  {result.segment.num_frames:>6}  "
              f"{report.confidence:>10.3f}  {report.oracle_calls:>17,}  "
              f"{result.fresh_oracle_calls:>11}  "
              f"{result.wall_seconds:>10.2f}s")

    print()
    print(f"total fresh oracle calls across the appends: {fresh_calls:,} "
          f"(a batch re-run per chunk would have re-paid "
          f"{batch_equivalent_calls:,})")

    # Persist the Phase-1 artifacts and prove the warm start.
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "archie-stream"
        session.checkpoint(store)
        resumed = Session.resume(store)
        answer = (resumed.query().topk(5).guarantee(0.9).subscribe())
        print(f"resumed from {store.name}: watermark="
              f"{resumed.watermark:,}, fresh oracle calls on resume="
              f"{answer.detail.fresh_confirm_calls}, answer unchanged="
              f"{answer.latest.answer_ids == live.latest.answer_ids}")

if __name__ == "__main__":
    main()

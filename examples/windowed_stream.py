"""Standing "last five minutes" query: a window sliding over a stream.

A traffic desk rarely wants the busiest moments *ever* — it wants the
busiest moments of the last few minutes, continuously. This example
opens a sliding-window streaming session over the Table 7 "archie"
stand-in and drives the window with both kinds of event:

* ``append(n)`` — frames arrive; the window front advances;
* ``tick(n)`` — time passes with no arrivals; old frames expire out
  of the back of the window.

Each event delivers one refreshed report, still certified to the 0.9
probabilistic guarantee, and each is byte-identical to a from-scratch
batch run over just the window's frames. The "fresh" column shows the
oracle work the live engine actually paid per event — proportional to
the delta, not the window, and zero inference for pure expiry.

Run:  python examples/windowed_stream.py
"""

from __future__ import annotations

from repro import EverestConfig, Session


def main() -> None:
    # The first 3000 frames are the bootstrap segment Phase 1 trains
    # on; answers then cover only the trailing 100 seconds of stream
    # time (3000 frames at 30 fps).
    session = Session.open_stream(
        "archie", "count[car]",
        initial_frames=3_000, min_frames=12_000,
        window_seconds=100.0,
        config=EverestConfig())
    live = (session.query()
            .topk(5)
            .guarantee(0.9)
            .subscribe())

    print(f"bootstrap @ {session.watermark} frames, window "
          f"[{session.window_lo}, {session.watermark}): "
          f"{live.latest.summary()}")
    print()
    header = (f"{'event':>12}  {'window':>15}  {'confidence':>10}  "
              f"{'tuples':>6}  {'fresh confirms':>14}  "
              f"{'fresh inference':>15}")
    print(header)
    print("-" * len(header))

    def show(kind, result):
        report = live.latest
        print(f"{kind:>12}  "
              f"[{session.window_lo:>6,}, {session.watermark:>6,})  "
              f"{report.confidence:>10.3f}  {report.num_tuples:>6,}  "
              f"{result.fresh_confirm_calls:>14}  "
              f"{result.fresh_inferred_frames:>15}")
        return result

    # Rush hour: frames arrive faster than they expire.
    appends = [show("append(1500)", session.append(1_500))
               for _ in range(3)]
    # The camera idles: pure expiry, the answer narrows with no new
    # arrivals — and no proxy inference at all.
    ticks = [show("tick(1000)", session.tick(1_000)) for _ in range(2)]
    # Arrivals resume.
    appends.append(show("append(1500)", session.append(1_500)))

    # The standing answer is exactly the batch answer over the window.
    reference = (session.batch_session().query()
                 .topk(5).guarantee(0.9)
                 .run())
    print()
    print(f"byte-identical to a fresh batch run over "
          f"[{session.window_lo:,}, {session.watermark:,}): "
          f"{live.latest.to_json() == reference.to_json()}")
    fresh = sum(result.fresh_oracle_calls for result in appends) \
        + sum(result.fresh_confirm_calls for result in ticks)
    print(f"expiry events: {len(ticks)}; total fresh oracle calls "
          f"across the events: {fresh:,}")


if __name__ == "__main__":
    main()

"""Property valuation: find a street's peak foot-traffic windows.

The paper's first motivating use case: a shop's rent tracks its peak
foot traffic, so an analyst asks for the Top-5 30-frame windows with
the highest average pedestrian count instead of manually counting.

This example drives the whole pipeline by registry strings: the
Table 7 "daxi-old-street" stand-in (a pedestrian street) and the
"count[person]" UDF name open a session, which then runs a Top-K
*window* query and prints the busiest moments as time ranges.

Run:  python examples/traffic_peak_hours.py
"""

from __future__ import annotations

from repro import EverestConfig, Session
from repro.core.windows import window_bounds, window_truth
from repro.metrics import evaluate_answer


def timestamp(frame: int, fps: float) -> str:
    seconds = frame / fps
    minutes, secs = divmod(int(seconds), 60)
    hours, minutes = divmod(minutes, 60)
    return f"{hours:02d}:{minutes:02d}:{secs:02d}"


def main() -> None:
    # Scaled-down stand-in for the 80-hour Daxi Old Street video.
    window_size = 30  # one second of 30 fps video per window
    session = Session.open(
        "daxi-old-street", "count[person]",
        config=EverestConfig(), min_frames=8_000)
    video = session.video

    report = (session.query()
              .windows(size=window_size)
              .topk(5)
              .guarantee(0.9)
              .run())

    print(report.summary())
    print()
    print(f"{'rank':<6}{'window':<9}{'time range':<22}{'avg persons'}")
    for rank, (window, score) in enumerate(
            zip(report.answer_ids, report.answer_scores), start=1):
        start, end = window_bounds(window, window_size, len(video))
        time_range = (
            f"{timestamp(start, video.fps)}-{timestamp(end, video.fps)}")
        print(f"{rank:<6}{window:<9}{time_range:<22}{score:.2f}")

    truth = window_truth(video.counts.astype(float), window_size)
    metrics = evaluate_answer(report.answer_ids, truth, 5)
    print()
    print(f"quality vs exhaustive oracle scan: {metrics.as_row()}")
    print(f"speedup over scan-and-test: {report.speedup:.1f}x")


if __name__ == "__main__":
    main()

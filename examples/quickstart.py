"""Quickstart: Top-K frames with a probabilistic guarantee.

Builds a synthetic traffic video, opens a query session, asks Everest
for the Top-10 frames with the most cars at 90% confidence, and
compares the answer against the ground truth the oracle would produce
on a full scan.

The declarative API separates the three concerns: a ``Session`` opens
a (video, UDF) pair and caches Phase 1; the fluent builder describes
the query; ``run()`` executes the compiled plan.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import EverestConfig
from repro.api import Session
from repro.metrics import evaluate_answer
from repro.oracle import counting_udf
from repro.video import TrafficVideo


def main() -> None:
    # A 5,000-frame synthetic street scene (deterministic per seed).
    # Tall, narrow rush-hour bursts make the peaks genuinely rare —
    # the regime in which Top-K search beats a full scan.
    video = TrafficVideo(
        "quickstart", 5_000, seed=7,
        base_level=1.0, burst_amplitude=10.0, num_bursts=3,
        max_objects=16)

    # The default UDF from the paper (Figure 3): the score of a frame
    # is the number of cars found by the (simulated) YOLOv3 oracle.
    session = Session(video, counting_udf("car"), config=EverestConfig())

    query = session.query().topk(10).guarantee(0.9)
    print(query.explain())
    print()
    report = query.run()

    print(report.summary())
    print()
    print(f"{'rank':<6}{'frame':<8}{'oracle score':<14}{'true score'}")
    for rank, (frame, score) in enumerate(
            zip(report.answer_ids, report.answer_scores), start=1):
        print(f"{rank:<6}{frame:<8}{score:<14.0f}"
              f"{video.true_count(frame)}")

    truth = video.counts.astype(float)
    metrics = evaluate_answer(report.answer_ids, truth, 10)
    print()
    print(f"quality vs ground truth: {metrics.as_row()}")
    print(f"simulated runtime: {report.simulated_seconds:,.0f}s "
          f"vs scan-and-test {report.scan_seconds:,.0f}s "
          f"-> {report.speedup:.1f}x speedup")
    print(f"oracle invocations: {report.oracle_calls:,} of "
          f"{len(video):,} frames")


if __name__ == "__main__":
    main()

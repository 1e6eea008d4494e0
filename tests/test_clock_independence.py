"""Reports and Phase-1 entries never read a clock.

The simulated ledger is a pure function of (video, UDF, config, plan),
so every ``QueryReport.to_json()`` byte must survive a skewed, jumping
``time.perf_counter``: each target below runs once on the real clock
and once on the broken one, and the bytes are compared. So must a
Phase-1 entry's pickle. Real time is observed only by trace spans
(:mod:`repro.trace`), never charged or stored.
"""

from __future__ import annotations

import pickle
import time

from repro import EverestConfig, Session, VideoCorpus
from repro.core.phase1 import run_phase1
from repro.oracle import counting_udf
from repro.video import TrafficVideo

CONFIG = EverestConfig.fast()
UDF = counting_udf("car")


class SkewedClock:
    """A monotonic clock that runs fast and jumps on every reading."""

    def __init__(self, real):
        self.real = real
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        return 1e6 + 3.7 * self.real() + 17.0 * self.calls


def _session(name, seed, frames=700):
    return Session(TrafficVideo(name, frames, seed=seed), UDF, config=CONFIG)


def frames_query():
    query = _session("clock-frames", 41).query().topk(5).guarantee(0.95)
    return [query.run().to_json()]


def windows_query():
    query = _session("clock-windows", 42).query().windows(size=10) \
        .topk(3).guarantee(0.95)
    return [query.run().to_json()]


def corpus_query():
    corpus = VideoCorpus.open(
        [TrafficVideo("clock-cam1", 420, seed=43),
         TrafficVideo("clock-cam2", 420, seed=44)], UDF, config=CONFIG)
    return [corpus.query().topk(4).guarantee(0.95).run().to_json()]


def windowed_subscription():
    stream = Session.open_stream(
        TrafficVideo("clock-stream", 600, seed=45), UDF,
        initial_frames=240, window_seconds=5.0, config=CONFIG)
    live = stream.query().topk(3).guarantee(0.95).subscribe()
    reports = [live.latest]
    for result in (stream.append(60), stream.tick(30)):
        reports.extend(result.reports)
    return [report.to_json() for report in reports]


TARGETS = (frames_query, windows_query, corpus_query, windowed_subscription)


def test_reports_are_byte_identical_under_a_skewed_clock(monkeypatch):
    honest = [target() for target in TARGETS]
    clock = SkewedClock(time.perf_counter)
    monkeypatch.setattr(time, "perf_counter", clock)
    skewed = [target() for target in TARGETS]
    monkeypatch.undo()
    assert clock.calls > 0
    assert [len(reports) for reports in honest] == [1, 1, 1, 3]
    for target, mine, theirs in zip(TARGETS, honest, skewed):
        assert mine == theirs, target.__name__


def test_a_phase1_entry_pickles_to_the_same_bytes_under_a_skewed_clock(
        monkeypatch):
    def build() -> bytes:
        entry = run_phase1(
            TrafficVideo("clock-build", 700, seed=46), UDF, None, CONFIG)
        return pickle.dumps(entry, pickle.HIGHEST_PROTOCOL)

    honest = build()
    assert build() == honest
    clock = SkewedClock(time.perf_counter)
    monkeypatch.setattr(time, "perf_counter", clock)
    skewed = build()
    monkeypatch.undo()
    assert skewed == honest

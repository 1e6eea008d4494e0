"""Golden-report fixtures: small fig5/6/7/9-style sweeps, checked in.

The checked-in JSON under ``tests/data/`` pins the exact
`QueryReport` output of four deterministic sweeps — the K sweep
(fig5), the threshold sweep (fig6), the window sweep (fig7), and the
depth-UDF scenarios (fig9). The tests assert

* a fresh serial run reproduces the fixtures byte-for-byte,
* a :class:`~repro.QueryService` on either lane at several worker
  counts reproduces the same bytes (neither the lane nor the worker
  count can leak into a report), and
* ``QueryReport.from_json`` round-trips every fixture byte-for-byte.

Regenerate after an intentional report change with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden_reports.py
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro import EverestConfig, QueryService, Session, VideoCorpus
from repro.core.result import QueryReport
from repro.oracle import counting_udf
from repro.oracle.depth import tailgating_udf
from repro.video import DashcamVideo, TrafficVideo

GOLDEN_DIR = pathlib.Path(__file__).parent / "data"

#: The recorded sweeps: fig5-style (K sweep), fig6-style (threshold
#: sweep), fig7-style (window-size sweep) and fig9-style (depth-UDF
#: scenarios), all deterministic by construction.
SWEEPS = ("fig5_quick", "fig6_quick", "fig7_quick", "fig9_quick")

#: Every recorded fixture, including the 3-shard federated corpus
#: sweep and the sliding-window stream (which run through their own
#: engines, not a plan sweep).
ALL_FIXTURES = SWEEPS + ("corpus_quick", "window_quick")


def _dump(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=1) + "\n"


def _sweeps():
    """name -> (session, plans) on fresh sessions: each sweep runs on
    its own session, fig5-7 sharing the traffic one."""
    traffic = Session(
        TrafficVideo("golden", 700, seed=11), counting_udf("car"),
        config=EverestConfig.fast())
    dashcam = Session(
        DashcamVideo("golden-dash", 700, seed=12), tailgating_udf(),
        config=EverestConfig.fast())
    base = traffic.query().guarantee(0.9)
    dash = dashcam.query()
    return {
        "fig5_quick": (traffic, [
            base.topk(k).plan() for k in (3, 5)]),
        "fig6_quick": (traffic, [
            base.topk(4).guarantee(thres).plan()
            for thres in (0.5, 0.9, 0.99)]),
        "fig7_quick": (traffic, [
            base.topk(4).plan(),
            base.topk(4).windows(size=20).plan(),
        ]),
        "fig9_quick": (dashcam, [
            dash.topk(3).guarantee(0.9).plan(),
            dash.topk(5).guarantee(0.9).plan(),
            dash.topk(3).guarantee(0.75).plan(),
            dash.topk(3).guarantee(0.9).windows(size=20).plan(),
        ]),
    }


@pytest.fixture(scope="module")
def golden_plans():
    return _sweeps()


@pytest.fixture(scope="module")
def serial_reports(golden_plans):
    reports = {
        name: [session.execute(plan) for plan in plans]
        for name, (session, plans) in golden_plans.items()
    }
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        for name, sweep in reports.items():
            (GOLDEN_DIR / f"{name}.json").write_text(_dump(sweep))
    return reports


@pytest.mark.parametrize("name", SWEEPS)
def test_serial_sweep_matches_golden_fixture(serial_reports, name):
    fixture = (GOLDEN_DIR / f"{name}.json").read_text()
    assert _dump(serial_reports[name]) == fixture


@pytest.mark.parametrize("workers", [2, 3])
def test_pooled_sweeps_match_golden_fixtures(workers):
    # Fresh sessions, so on the process lane Phase 1 builds in a pool
    # worker too, not only Phase 2.
    for use_processes in (True, False):
        with QueryService(
                workers=workers, use_processes=use_processes) as service:
            futures = {
                name: [service.submit(plan, session=session)
                       for plan in plans]
                for name, (session, plans) in _sweeps().items()
            }
            for name, sweep in futures.items():
                fixture = (GOLDEN_DIR / f"{name}.json").read_text()
                assert _dump(service.gather(sweep, timeout=240)) == \
                    fixture, f"{name} {workers=} {use_processes=}"


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_from_json_round_trips_byte_for_byte(name):
    payload = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert payload, "fixture must contain reports"
    for entry in payload:
        text = json.dumps(entry)
        report = QueryReport.from_json(text)
        assert report.to_json() == text
        # And a second decode/encode cycle is a fixed point.
        again = QueryReport.from_json(report.to_json())
        assert again.to_json() == report.to_json()
        assert again == report


def test_golden_reports_answer_their_queries():
    for name in ALL_FIXTURES:
        payload = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        for entry in payload:
            report = QueryReport.from_dict(entry)
            assert report.confidence >= report.thres
            assert len(report.answer_ids) == report.k


# ----------------------------------------------------------------------
# The 3-shard federated corpus sweep (DESIGN.md §9).


@pytest.fixture(scope="module")
def golden_corpus():
    videos = [
        TrafficVideo(f"golden-shard{i}", 300, seed=21 + i)
        for i in range(3)
    ]
    corpus = VideoCorpus.open(
        videos, counting_udf("car"), config=EverestConfig.fast())
    return corpus, videos


def _corpus_queries(corpus):
    base = corpus.query().guarantee(0.9)
    return [
        base.topk(3),
        base.topk(5),
        base.topk(3).guarantee(0.99),
        base.topk(4).oracle_budget(400),
    ]


@pytest.fixture(scope="module")
def corpus_reports(golden_corpus):
    corpus, _ = golden_corpus
    reports = [query.run() for query in _corpus_queries(corpus)]
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        (GOLDEN_DIR / "corpus_quick.json").write_text(_dump(reports))
    return reports


def test_federated_corpus_matches_golden_fixture(corpus_reports):
    fixture = (GOLDEN_DIR / "corpus_quick.json").read_text()
    assert _dump(corpus_reports) == fixture


def test_corpus_golden_equals_concatenated_reference(golden_corpus):
    """The recorded federated bytes double as an equivalence pin: a
    plain executor over the concat view with the merged entry lands on
    the same fixture."""
    from repro.api.executor import QueryExecutor
    from repro.video.views import ConcatVideo

    corpus, videos = golden_corpus
    state = corpus.merged_state()
    session = Session(
        ConcatVideo(videos, name=corpus.name),
        counting_udf("car"), config=EverestConfig.fast())
    session.adopt_phase1(state.entry, EverestConfig.fast())
    executor = QueryExecutor(session)
    reports = [
        executor.execute(query.plan()) for query in _corpus_queries(corpus)
    ]
    fixture = (GOLDEN_DIR / "corpus_quick.json").read_text()
    assert _dump(reports) == fixture


# ----------------------------------------------------------------------
# The sliding-window stream (DESIGN.md §13): one report per insert
# (append) and per expiry (tick), recorded in event order.

WINDOW_EVENTS = (
    ("append", 150), ("tick", 64), ("append", 150), ("tick", 64))


@pytest.fixture(scope="module")
def window_reports():
    stream = Session.open_stream(
        TrafficVideo("golden-win", 600, seed=13), counting_udf("car"),
        initial_frames=300, window_seconds=256 / 30.0,
        config=EverestConfig.fast())
    live = stream.query().topk(4).guarantee(0.9).subscribe()
    reports = [live.latest]
    for kind, size in WINDOW_EVENTS:
        if kind == "append":
            reports.extend(stream.append(size).reports)
        else:
            reports.extend(stream.tick(size).reports)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        (GOLDEN_DIR / "window_quick.json").write_text(_dump(reports))
    return reports


def test_windowed_stream_matches_golden_fixture(window_reports):
    fixture = (GOLDEN_DIR / "window_quick.json").read_text()
    assert len(window_reports) == len(WINDOW_EVENTS) + 1
    assert _dump(window_reports) == fixture


def test_query_service_reproduces_golden_fixtures(golden_plans):
    """Concurrent service execution lands on the same recorded bytes."""
    from repro import QueryService

    sessions = {session for session, _ in golden_plans.values()}
    try:
        with QueryService(workers=3, use_processes=False) as service:
            futures = {}
            for name, (session, plans) in golden_plans.items():
                service.adopt_session(session)
                futures[name] = [
                    service.submit(plan, session=session) for plan in plans]
            for name, sweep in futures.items():
                fixture = (GOLDEN_DIR / f"{name}.json").read_text()
                reports = service.gather(sweep, timeout=120)
                assert _dump(reports) == fixture, name
    finally:
        # The module-scoped sessions outlive this service: unbind them.
        for session in sessions:
            session.bind_service(None, None)

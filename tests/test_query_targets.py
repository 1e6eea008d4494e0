"""One ``Query`` over a target: sessions and corpora share the builder.

``session.query()`` and ``corpus.query()`` return the same class
(DESIGN.md §4), so this file pins, for both targets at once:

* **validation** — every clause refuses bool / str / None / NaN / ±inf
  / 0 / negatives with its documented error *at call time*, and keeps
  accepting numpy numbers;
* **parity** — a corpus of one compiles, clause for clause, to the plan
  its member session compiles (closed, streaming and windowed sources,
  with and without ``window(seconds=...)``);
* **wrong doors** — the two single-target clauses name the other door
  before any Phase 1 runs; a corpus query takes every other clause;
* **windowed members** (DESIGN.md §13) — a corpus holding a
  sliding-window stream answers, byte-identical to the stream itself
  for a corpus of one, and refuses a window wider than the member's;
* **replaced, not forked** — ``CorpusQuery`` and ``corpus/query.py``
  are gone from ``src/`` and each shared clause is defined once.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from repro import EverestConfig, Session, VideoCorpus
from repro.api.executor import ExecutionDetail, QueryExecutor
from repro.api.plan import QueryPlan
from repro.api.query import Query
from repro.config import Phase1Config, Phase2Config
from repro.errors import ConfigurationError, QueryError
from repro.oracle import counting_udf, merge_cost_models
from repro.video import TrafficVideo
from repro.video.views import ConcatVideo

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

CONFIG = EverestConfig(
    phase1=Phase1Config(
        sample_fraction=0.05,
        min_train_samples=96,
        holdout_samples=48,
        cmdn_grid=((3, 12),),
        epochs=15,
    ),
)
UDF = counting_udf("car")
BOOTSTRAP = 420
WINDOW_SECONDS = 5.0  # 150 frames at 30 fps


def closed_session(name="targets-closed", frames=600, seed=71):
    return Session(TrafficVideo(name, frames, seed=seed), UDF, config=CONFIG)


def stream_session(window_seconds=None, name="targets-live", seed=72):
    return Session.open_stream(
        TrafficVideo(name, 900, seed=seed), UDF, initial_frames=BOOTSTRAP,
        window_seconds=window_seconds, config=CONFIG)


SOURCES = {
    "closed": closed_session,
    "streaming": stream_session,
    "windowed": lambda: stream_session(WINDOW_SECONDS),
}


def both_targets():
    session = closed_session()
    return {"session": session, "corpus": VideoCorpus([session])}


# ----------------------------------------------------------------------
# Validation: one matrix, both targets, every clause.

BAD_ANYWHERE = [True, False, "3", None, float("nan"), float("inf"),
                float("-inf"), 0, -1, -0.5]
#: clause -> (call, error, extra bad values, good values, targets)
CLAUSES = {
    "topk": (lambda q, v: q.topk(v), QueryError,
             [1.5, 2.0], [3, np.int64(3), np.uint8(3)], "both"),
    "guarantee": (lambda q, v: q.guarantee(v), QueryError,
                  [1.5, 2], [0.9, 1, 1.0, np.float64(0.9),
                             np.float32(0.5)], "both"),
    "window": (lambda q, v: q.window(seconds=v), QueryError,
               [], [2, 2.5, np.float64(2.5), np.int64(2)], "both"),
    "oracle_budget": (lambda q, v: q.oracle_budget(v), ConfigurationError,
                      [1.5], [None, 7, np.int32(7)], "both"),
    "windows.size": (lambda q, v: q.windows(size=v), QueryError,
                     [1.5], [10, np.int64(10)], "session"),
    "windows.step": (lambda q, v: q.windows(10, step=v), QueryError,
                     ["x"], [None, 0.25, 1, np.float64(0.25)], "session"),
}


def _matrix():
    for name, (call, error, extra_bad, good, where) in CLAUSES.items():
        targets = ("session", "corpus") if where == "both" else (where,)
        for target in targets:
            for value in BAD_ANYWHERE + extra_bad:
                if value is None and None in good:
                    continue
                yield pytest.param(
                    target, call, value, error,
                    id=f"{target}-{name}-bad-{value!r}")
            for value in good:
                yield pytest.param(
                    target, call, value, None,
                    id=f"{target}-{name}-ok-{type(value).__name__}")


@pytest.fixture(scope="module")
def targets():
    return both_targets()


@pytest.mark.parametrize("target, call, value, error", _matrix())
def test_clause_validation_matrix(targets, target, call, value, error):
    query = targets[target].query()
    if error is None:
        assert isinstance(call(query, value), Query)
        return
    # The documented error, at call time — never a TypeError from
    # inside a comparison, never silently accepted.
    with pytest.raises(error) as excinfo:
        call(query, value)
    assert repr(value) in str(excinfo.value)
    assert targets["session"].phase1_runs == 0


def test_numpy_numbers_compile_to_plain_python(targets):
    for target in targets.values():
        plan = (target.query().topk(np.int64(4)).guarantee(np.float32(0.5))
                .oracle_budget(np.int32(9)).window(seconds=np.int64(2))
                .plan())
        assert (type(plan.k), type(plan.thres), type(plan.oracle_budget),
                type(plan.window_seconds)) == (int, float, int, float)


# ----------------------------------------------------------------------
# Parity: a corpus of one compiles to its member's plan.

OVERRIDE = dataclasses.replace(CONFIG, phase2=Phase2Config(batch_size=3))
SHARED_CLAUSES = {
    "defaults": lambda q: q,
    "topk": lambda q: q.topk(7),
    "guarantee": lambda q: q.guarantee(0.75),
    "frames": lambda q: q.frames(),
    "oracle_budget": lambda q: q.oracle_budget(40),
    "oracle_budget-none": lambda q: q.oracle_budget(None),
    "with_config": lambda q: q.with_config(OVERRIDE),
    "window": lambda q: q.window(seconds=2.0),
    "everything": lambda q: (
        q.topk(3).guarantee(0.8).oracle_budget(25).with_config(OVERRIDE)
        .window(seconds=1.5)),
}


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("clause", sorted(SHARED_CLAUSES))
def test_corpus_of_one_compiles_to_the_member_plan(source, clause):
    session = SOURCES[source]()
    if source != "closed":
        session.append(60)
    build = SHARED_CLAUSES[clause]
    mine = build(session.query())
    theirs = build(VideoCorpus([session]).query())
    assert type(mine) is type(theirs) is Query
    for field in dataclasses.fields(mine.plan()):
        assert getattr(mine.plan(), field.name) == \
            getattr(theirs.plan(), field.name), field.name
    windowed = source == "windowed" or "window" in clause \
        or clause == "everything"
    assert (mine.plan().frame_ranges is not None) == windowed
    assert mine.explain() in theirs.explain()
    assert session.phase1_runs == (0 if source == "closed" else 1)


def test_window_ranges_land_in_the_corpus_namespace():
    closed, windowed = closed_session(), stream_session(WINDOW_SECONDS)
    windowed.append(90)
    windowed.tick(30)
    corpus = VideoCorpus([closed, windowed])
    offset = len(closed.video)
    own_lo, own_hi = windowed.query().plan().frame_ranges[0]
    # No clause: the windowed member's implicit window, all of the rest.
    implicit = corpus.query().plan()
    assert implicit.frame_ranges == (
        (0, offset), (offset + own_lo, offset + own_hi))
    assert implicit.window_seconds == WINDOW_SECONDS
    # A clause narrows every member, each relative to its own horizon.
    narrowed = corpus.query().window(seconds=2.0).plan()
    assert narrowed.frame_ranges == (
        (offset - 60, offset),
        (offset + windowed.horizon - 60, offset + own_hi))
    assert narrowed.window_seconds == 2.0


# ----------------------------------------------------------------------
# Wrong doors and re-targeting.


def test_single_target_clauses_name_the_other_door(targets):
    with pytest.raises(QueryError, match=r"member session's query\(\)"):
        targets["corpus"].query().windows(size=10)
    assert targets["session"].phase1_runs == 0


def test_over_corpus_carries_every_parameter(targets):
    """K, guarantee, budget, config override and sliding window: a
    corpus query holds each as a session query does, into its plan."""
    session, corpus = targets["session"], targets["corpus"]

    def clauses(query):
        return (query.topk(6).guarantee(0.7).oracle_budget(33)
                .with_config(OVERRIDE).window(seconds=3.0))

    on_session, on_corpus = clauses(session.query()), clauses(corpus.query())
    assert on_corpus.target is corpus
    assert dataclasses.replace(on_corpus, target=None) == \
        dataclasses.replace(on_session, target=None)
    plan = on_corpus.plan()
    assert (plan.k, plan.thres, plan.oracle_budget, plan.config,
            plan.window_seconds) == (6, 0.7, 33, OVERRIDE, 3.0)


# ----------------------------------------------------------------------
# Windowed members (failed at the parent with UncertainRelationError).


def ledger_key(cost) -> dict:
    return {key: (cost.units(key), cost.seconds(key))
            for key in sorted(cost.breakdown())}


def test_corpus_of_one_windowed_stream_is_byte_identical():
    alone = stream_session(WINDOW_SECONDS)
    member = stream_session(WINDOW_SECONDS)
    corpus = VideoCorpus([member])

    def build(target):
        return target.query().topk(4).guarantee(0.9)

    for event in (None, ("append", 150), ("tick", 60)):
        if event is not None:
            for stream in (alone, member):
                getattr(stream, event[0])(event[1])
        reference = QueryExecutor(alone).execute_detailed(
            build(alone).plan())
        outcome = build(corpus).run_detailed()
        assert outcome.report.to_json() == reference.report.to_json(), event
        assert build(alone).run().to_json() == reference.report.to_json()
        assert ledger_key(outcome.merged_cost()) == ledger_key(
            merge_cost_models(
                [alone.phase1().cost_model, reference.phase2_cost])), event
        lo, hi = build(alone).plan().frame_ranges[0]
        assert all(lo <= frame < hi for frame in outcome.report.answer_ids)


def test_mixed_corpus_with_a_windowed_member_matches_concat_reference():
    closed = closed_session()
    windowed = stream_session(WINDOW_SECONDS)
    windowed.append(150)
    windowed.tick(45)
    corpus = VideoCorpus([closed, windowed])
    for query in (
            corpus.query().topk(5).guarantee(0.9),
            corpus.query().topk(5).guarantee(0.9)
            .window(seconds=3.0)):
        outcome = query.run_detailed()
        state = corpus.merged_state()
        reference_session = Session(
            ConcatVideo([closed.video, windowed.video], name=corpus.name),
            UDF, config=CONFIG)
        reference_session.adopt_phase1(state.entry, CONFIG)
        reference = QueryExecutor(reference_session).execute_detailed(
            query.plan())
        assert outcome.report.to_json() == reference.report.to_json()
        assert ledger_key(outcome.merged_cost()) == ledger_key(
            merge_cost_models([state.entry.cost_model,
                               reference.phase2_cost]))
        # Nothing below the member's window edge can be answered.
        offset = len(closed.video)
        for name, local in outcome.answer_members():
            if name == windowed.video.name:
                assert local >= windowed.window_lo
        assert sum(hi - lo for lo, hi in query.plan().frame_ranges) \
            < offset + len(windowed.video)
    # The merged DiffResult still counts the member's whole prefix.
    assert state.entry.diff_result.retained.size == sum(
        member.session.phase1().diff_result.retained.size
        for member in corpus.members)


def test_window_wider_than_a_member_window_is_a_query_error():
    closed = closed_session()
    windowed = stream_session(WINDOW_SECONDS)
    for corpus in (VideoCorpus([windowed]), VideoCorpus([closed, windowed])):
        with pytest.raises(QueryError, match="wider than the session "
                           "window.*on member 'targets-live'"):
            corpus.query().window(seconds=10).plan()
        assert corpus.query().window(seconds=WINDOW_SECONDS).plan() \
            .window_seconds == WINDOW_SECONDS
    # A stream's clock may run ahead of its arrivals: a clause narrower
    # than the gap has nothing left to rank.
    windowed.tick(120)
    with pytest.raises(QueryError, match="fully expired on member"):
        VideoCorpus([closed, windowed]).query().window(seconds=2).plan()
    with pytest.raises(QueryError, match="fully expired:"):
        windowed.query().window(seconds=2).plan()


def test_corpus_subscription_follows_a_windowed_member():
    closed = closed_session()
    windowed = stream_session(WINDOW_SECONDS)
    corpus = VideoCorpus([closed, windowed])
    query = corpus.query().topk(4).guarantee(0.9)
    subscription = query.subscribe()
    for event in (lambda: windowed.append(120), lambda: windowed.tick(30)):
        assert event().reports == [subscription.latest]
    assert subscription.latest.to_json() == query.run().to_json()
    assert set(subscription.detail.allocation()) == \
        set(corpus.member_names)


def test_a_session_subscription_refreshes_on_its_executor():
    stream = stream_session()
    subscription = stream.query().topk(4).guarantee(0.9).subscribe()
    result = stream.append(60)
    assert result.reports == [subscription.latest]
    assert isinstance(subscription.detail, ExecutionDetail)
    assert result.fresh_confirm_calls == \
        subscription.detail.fresh_confirm_calls
    with pytest.raises(QueryError, match="executor"):
        subscription.refresh()
    assert subscription.latest is result.reports[0]


# ----------------------------------------------------------------------
# Replaced, not forked.


def test_the_corpus_builder_is_gone_and_each_clause_is_stated_once():
    assert not (SRC / "corpus" / "query.py").exists()
    sources = {path: path.read_text("utf-8") for path in SRC.rglob("*.py")}
    assert [str(path) for path, text in sources.items()
            if "CorpusQuery" in text] == []
    builder = sources[SRC / "api" / "query.py"] + "".join(
        text for path, text in sources.items()
        if path.parent == SRC / "corpus")
    for clause in ("topk", "guarantee", "oracle_budget", "with_config",
                   r"window\(", "plan", "explain",
                   "subscribe", "run_detailed"):
        assert len(re.findall(rf"def {clause}\b", builder)) == 1, clause
    # The window rule's arithmetic lives in one function of the builder.
    text = sources[SRC / "api" / "query.py"]
    assert text.count("window_frames_for(") == 1
    assert text.count("horizon - window_frames") == 1
    rule = inspect.getsource(Query._resolve_window)
    assert "window_frames_for(" in rule and "horizon - window_frames" in rule


def test_plans_carry_no_timing_mode(targets):
    assert "deterministic_timing" not in {
        field.name for field in dataclasses.fields(QueryPlan)}
    query = targets["session"].query().topk(3)
    assert query.deterministic_timing() is query


def test_run_lost_its_parallel_knob(targets):
    for method in (Query.run, Query.run_detailed):
        assert list(inspect.signature(method).parameters) == ["self"]
    assert list(inspect.signature(
        VideoCorpus.execute_detailed).parameters) == ["self", "plan"]
    assert type(targets["session"].query()) is \
        type(targets["corpus"].query())

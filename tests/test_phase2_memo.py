"""What a query starts from when nothing is cleaned yet (DESIGN.md §3).

With D0 holding at least K certain tuples, the bootstrap's answer and
its (S_k, S_p) levels, and Select-candidate's iteration-0 ranking, are
pure functions of D0: the relation keeps them in :meth:`~repro.core.
uncertain.UncertainRelation.memo`. These tests pin that a memo hit
answers byte for byte what a fresh session answers, ledger included,
on both service lanes; that the memo is derived state (never pickled,
shipped or checkpointed, not inherited by a row restriction, read
only, equal whichever racing thread builds it); and that a query whose
bootstrap cleans never touches it. A window's oracle sample is the
same kind of state, kept on the Phase-1 entry: a window query that
repeats what an earlier one cleaned draws no sample.
"""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro import EverestConfig, QueryService, Session
from repro.config import Phase2Config
from repro.core import windows
from repro.core.cleaner import TopKCleaner
from repro.core.uncertain import (
    QuantizationGrid,
    UncertainRelation,
    restrict_relation,
)
from repro.oracle import counting_udf
from repro.service.backend import ship_spec
from repro.video import TrafficVideo

from conftest import with_certain

FAST = EverestConfig.fast()
UDF = counting_udf("car")
WAIT = 60.0
#: Frame shapes (K, thres) and window shapes (K, thres, window size).
FRAME_SHAPES = ((3, 0.9), (5, 0.95), (12, 0.9), (1, 0.9))
WINDOW_SHAPES = ((5, 0.9, 30), (3, 0.95, 20))
#: A window shape asked twice, then a smaller K on the same window
#: size, which cleans a subset of the windows the first one cleaned.
WINDOW_REPEATS = ((5, 0.9, 30), (5, 0.9, 30), (3, 0.9, 30))


def _session(seed=301, frames=900):
    session = Session(
        TrafficVideo(f"memo-{seed}", frames, seed=seed), UDF, config=FAST)
    session.phase1()
    return session


def _queries(session):
    queries = [session.query().topk(k).guarantee(t)
               for k, t in FRAME_SHAPES]
    queries += [session.query().topk(k).guarantee(t).windows(size=w)
                for k, t, w in WINDOW_SHAPES]
    return queries


def _ledger(cost):
    return {key: (cost.units(key), cost.seconds(key))
            for key in cost.breakdown()}


def _detail(detail):
    return detail.report.to_json(), _ledger(detail.phase2_cost)


@pytest.fixture(scope="module")
def fresh():
    """Each shape on its own fresh session: nothing memoized."""
    count = len(FRAME_SHAPES) + len(WINDOW_SHAPES)
    return [_detail(_queries(_session())[i].run_detailed())
            for i in range(count)]


def _window_query(session, shape):
    k, thres, window = shape
    return session.query().topk(k).guarantee(thres).windows(size=window)


@pytest.fixture
def draws(monkeypatch):
    """``(window size, window id)`` of every sample drawn in this
    process, by wrapping the one draw."""
    drawn = []
    original = windows.window_sample

    def wrapper(seed, window_id, window_size, num_frames):
        drawn.append((window_size, window_id))
        return original(seed, window_id, window_size, num_frames)

    monkeypatch.setattr(windows, "window_sample", wrapper)
    return drawn


def _memo(relation):
    return vars(relation).get("_memo") or {}


def _arrays(value):
    """Every array in ``value``, through tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [array for item in value for array in _arrays(item)]
    return []


def test_a_memo_hit_answers_as_a_fresh_session_does(fresh):
    session = _session()
    relation = session.phase1().relation
    first = [_detail(query.run_detailed()) for query in _queries(session)]
    keys = set(_memo(relation))
    assert ("bootstrap", 3) in keys and ("bootstrap", 1) in keys
    assert any(key[0] == "resort" for key in keys)
    plan = _queries(session)[len(FRAME_SHAPES)].plan()
    window = session.phase1().window_relation(
        window_size=plan.window_size, floor=UDF.score_floor,
        step=plan.window_step)
    # A window relation holds no certain tuple: its bootstrap cleans.
    assert window.num_certain == 0 and not _memo(window)
    # Second pass: every start is a memo hit, and nothing new is built.
    second = [_detail(query.run_detailed()) for query in _queries(session)]
    assert set(_memo(relation)) == keys
    assert first == fresh and second == fresh


def test_a_memo_hit_answers_alike_on_the_process_lane(fresh):
    with QueryService(workers=1, use_processes=True) as service:
        session = service.open_session(
            TrafficVideo("memo-301", 900, seed=301), UDF, config=FAST)
        session.phase1()
        for _ in range(2):  # the one worker keeps the entry: a hit
            futures = [service.submit(query) for query in _queries(session)]
            service.gather(futures, timeout=WAIT)
            assert [_detail(future.outcome(WAIT))
                    for future in futures] == fresh


def test_memo_values_are_read_only():
    session = _session()
    for query in _queries(session):
        query.run()
    arrays = _arrays(tuple(
        _memo(session.phase1().relation).values()))
    assert arrays
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0


def test_the_memo_is_never_pickled_shipped_or_inherited_by_a_restriction():
    session = _session()
    entry = session.phase1()
    relation = entry.relation
    cold = ship_spec(session, [(session.config, entry)]).blob
    for query in _queries(session):
        query.run()
    assert _memo(relation)
    assert ship_spec(session, [(session.config, entry)]).blob == cold
    assert "_memo" not in vars(pickle.loads(pickle.dumps(relation)))
    received = pickle.loads(pickle.dumps(entry))
    assert "_memo" not in vars(received.relation)
    # A restriction to every row is the relation itself; a real one is
    # other tuples and starts without.
    assert restrict_relation(relation, [(0, 10**9)]) is relation
    restricted = restrict_relation(relation, [(100, 500)])
    assert "_memo" not in vars(restricted)
    # ...and so does a rebuild with one more tuple certain.
    rebuilt = with_certain(
        relation, [int(relation.uncertain_positions()[0])], [1.0])
    assert "_memo" not in vars(rebuilt) and _memo(relation)


def test_a_stream_checkpoint_carries_no_memo(tmp_path):
    stream = Session.open_stream(
        TrafficVideo("memo-ck", 1_000, seed=83), UDF,
        initial_frames=700, config=FAST)
    stream.append(120)
    reports = [query.run().to_json() for query in _queries(stream)]
    relation = stream.phase1().relation
    assert _memo(relation)
    stream.checkpoint(tmp_path / "warm")
    for blob in (tmp_path / "warm").rglob("*"):
        if blob.is_file():
            assert b"_memo" not in blob.read_bytes()
    resumed = Session.resume(tmp_path / "warm")
    assert "_memo" not in vars(resumed.phase1().relation)
    assert [query.run().to_json() for query in _queries(resumed)] == reports


def _two_certain_relation():
    """Twelve tuples, two of them certain: K = 5 must clean first."""
    rng = np.random.default_rng(7)
    pmf = rng.random((12, 6))
    pmf /= pmf.sum(axis=1, keepdims=True)
    return with_certain(UncertainRelation(
        np.arange(12), pmf, QuantizationGrid(0.0, 1.0, 6)), [0, 1], [4.0, 2.0])


def test_a_bootstrap_that_cleans_neither_reads_nor_writes_the_memo(
        monkeypatch):
    relation = _two_certain_relation()
    truth = dict(enumerate([4.0, 2.0, 1, 3, 0, 5, 2, 1, 4, 0, 3, 1]))
    asked = []
    original = UncertainRelation.memo

    def spy(self, key, build):
        asked.append(key)
        return original(self, key, build)

    monkeypatch.setattr(UncertainRelation, "memo", spy)
    cleaner = TopKCleaner(
        relation, lambda ids: np.array([float(truth[i]) for i in ids]),
        Phase2Config(batch_size=2))
    result = cleaner.run(5, 0.9)
    assert result.cleaned > 0
    assert asked == [] and "_memo" not in vars(relation)
    # With K = 2 the bootstrap cleans nothing: the memo is used.
    TopKCleaner(relation, None).run(2, 1e-9)
    assert asked == [("bootstrap", 2)]


def test_racing_threads_build_equal_memos():
    """Four threads start the same query on a relation nothing has
    derived yet: every answer and every memo value equals a serial
    run's, whichever assignment wins."""
    session = _session(302)
    serial = session.query().topk(5).guarantee(0.9).run().to_json()
    reference = dict(_memo(session.phase1().relation))

    racing = _session(302)
    relation = racing.phase1().relation
    barrier = threading.Barrier(4)
    seen = []

    def first_use():
        barrier.wait(timeout=WAIT)
        seen.append(racing.query().topk(5).guarantee(0.9).run().to_json())

    threads = [threading.Thread(target=first_use) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=WAIT)
        assert not thread.is_alive()
    assert seen == [serial] * 4
    assert _memo(relation).keys() == reference.keys()
    for key, value in reference.items():
        assert pickle.dumps(_memo(relation)[key]) == pickle.dumps(value)


@pytest.mark.parametrize("use_processes", [False, True])
def test_a_repeated_window_query_draws_no_sample(draws, use_processes):
    """Each shape answers as it does on a fresh session, ledger
    included, on both lanes; on the inline lane, where the draws are
    counted, only the first query draws and no window is drawn twice."""
    expected = [_detail(_window_query(_session(), shape).run_detailed())
                for shape in WINDOW_REPEATS]
    draws.clear()
    seen, drawn = [], []
    with QueryService(workers=1, use_processes=use_processes) as service:
        session = service.open_session(
            TrafficVideo("memo-301", 900, seed=301), UDF, config=FAST)
        session.phase1()
        for shape in WINDOW_REPEATS:
            future = service.submit(_window_query(session, shape))
            seen.append(_detail(future.outcome(WAIT)))
            drawn.append(len(draws))
    assert seen == expected
    if not use_processes:
        assert drawn[0] > 0 and drawn == [drawn[0]] * len(WINDOW_REPEATS)
        assert len(set(draws)) == len(draws)


def test_window_samples_live_on_the_entry_read_only(draws):
    session = _session()
    for query in _queries(session):
        query.run()
    entry = session.phase1()
    samples = vars(entry)["_window_samples"]
    assert sorted(key[0] for key in samples) == [20, 30]
    assert sum(len(drawn) for drawn in samples.values()) == len(draws)
    for drawn in samples.values():
        for frames in drawn.values():
            assert not frames.flags.writeable
            with pytest.raises(ValueError):
                frames[...] = 0

"""Every plain session confirms through its own score cache.

A confirmed frame's exact score is a fixed fact, so a closed
``Session`` keeps what its oracle revealed (DESIGN.md §3): a repeated
or overlapping query re-scores nothing it already confirmed. The
reference is the same executor handed a plain
:class:`~repro.oracle.base.Oracle` factory — every confirmation a
physical UDF call. Against it the cache may change the number of UDF
calls and nothing else: report bytes, ledger charges, ``oracle_calls``
and budget refusals are the reference's.
"""

import dataclasses
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import EverestConfig, QueryService, Session
from repro.api.executor import QueryExecutor
from repro.errors import OracleBudgetExceededError, OracleError
from repro.oracle import Oracle, counting_udf
from repro.oracle.cache import ScoreCache
from repro.video import TrafficVideo

FAST = EverestConfig.fast()
VIDEO = TrafficVideo("score-cache", 700, seed=61)
COUNT = counting_udf("car")


class Counted:
    """The counting UDF, logging every batch it physically scores;
    frames in ``poison`` score ``NaN``."""

    def __init__(self):
        self.batches = []
        self.poison = set()

    @property
    def frames(self) -> int:
        return sum(len(batch) for batch in self.batches)

    def __call__(self, frames):
        self.batches.append([frame.index for frame in frames])
        scores = COUNT.score_frames(frames)
        for row, frame in enumerate(frames):
            if frame.index in self.poison:
                scores[row] = float("nan")
        return scores


@pytest.fixture(scope="module")
def entry():
    return Session(VIDEO, COUNT, config=FAST).phase1()


def _session(entry, counted):
    session = Session(
        VIDEO, dataclasses.replace(COUNT, score_frames=counted),
        config=FAST)
    session.adopt_phase1(entry)
    return session


def _reference(session):
    """An executor whose every confirmation is a physical UDF call."""
    def plain(plan, phase2_cost):
        return Oracle(
            session.scoring, phase2_cost, cost_key="oracle_confirm",
            budget=plan.oracle_budget)

    return QueryExecutor(session, confirm_oracle=plain)


def _plan(session, shape):
    k, thres, window, budget = shape
    query = session.query().topk(k).guarantee(thres).oracle_budget(budget)
    return (query.windows(size=window) if window else query).plan()


def _observed(executor, plan):
    """Everything a caller sees: report bytes, calls and every ledger
    charge — or the budget refusal."""
    try:
        detail = executor.execute_detailed(plan)
    except OracleBudgetExceededError as error:
        return "refused", str(error)
    cost = detail.phase2_cost
    return detail.report.to_json(), detail.report.oracle_calls, [
        (key, cost.units(key), seconds)
        for key, seconds in cost.breakdown().items()]


#: (k, thres, window size or 0 for frames, oracle budget); a 25-frame
#: window leaves 28 windows, more than any k drawn.
SHAPES = st.tuples(
    st.integers(1, 20),
    st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99]),
    st.sampled_from([0, 10, 25]),
    st.sampled_from([None, None, 40, 200]),
)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shapes=st.lists(SHAPES, min_size=1, max_size=5))
def test_any_query_sequence_matches_the_plain_oracle(entry, shapes):
    cached_udf, plain_udf = Counted(), Counted()
    cached = _session(entry, cached_udf)
    plain = _session(entry, plain_udf)
    reference = _reference(plain)
    seen = set()
    for shape in [*shapes, shapes[0]]:
        before = cached_udf.frames
        assert _observed(QueryExecutor(cached), _plan(cached, shape)) \
            == _observed(reference, _plan(plain, shape))
        if shape in seen:
            assert cached_udf.frames == before  # a repeat scores nothing
        seen.add(shape)
    assert cached_udf.frames <= plain_udf.frames


def test_a_refused_batch_leaves_nothing_in_the_cache(entry):
    shape = (30, 0.99, 0, None)
    probe = Counted()
    healthy = _session(entry, probe)
    QueryExecutor(healthy).execute(_plan(healthy, shape))
    first, second = probe.batches[:2]

    counted = Counted()
    session = _session(entry, counted)
    counted.poison = {second[-1]}
    with pytest.raises(OracleError, match=str(second[-1])):
        QueryExecutor(session).execute(_plan(session, shape))
    # The batch before the refusal was revealed; none of the refused one.
    revealed, _ = session.shared_score_cache.since(0)
    assert sorted(dict(revealed)) == sorted(first)

    counted.poison = set()
    reference = _session(entry, Counted())
    for retry in (shape, (10, 0.9, 30, None)):
        assert _observed(QueryExecutor(session), _plan(session, retry)) \
            == _observed(_reference(reference), _plan(reference, retry))


def test_bind_service_without_a_cache_keeps_the_sessions_own(entry):
    counted = Counted()
    session = _session(entry, counted)
    own = session.shared_score_cache
    plan = _plan(session, (10, 0.9, 0, None))
    first = _observed(QueryExecutor(session), plan)
    scored = counted.frames
    with QueryService(workers=1, use_processes=False) as service:
        assert session.bind_service(service.artifacts) is session
        assert session.shared_score_cache is own
        assert _observed(QueryExecutor(session), plan) == first
        assert counted.frames == scored
        group = ScoreCache()
        session.bind_service(service.artifacts, group)
        assert session.shared_score_cache is group


class _CountingLock:
    def __init__(self):
        self.lock, self.taken = threading.Lock(), 0

    def __enter__(self):
        self.taken += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


def test_merge_takes_the_lock_once_and_keeps_merge_order():
    items = [(3, 1.0), (5, 2.0), (3, 1.0), (7, 0.0), (9, 4.0), (5, 2.0)]
    cache = ScoreCache()
    cache._lock = _CountingLock()
    cache.merge(items)
    assert cache._lock.taken == 1
    # A frame merged again keeps its first place.
    assert cache.since(0)[0] == list(dict(items).items())


FRAMES = st.lists(st.integers(0, 30), max_size=8)


@settings(max_examples=100, deadline=None)
@given(batches=st.lists(FRAMES, max_size=6))
def test_since_returns_exactly_the_entries_merged_after_a_position(batches):
    cache, positions, first_seen = ScoreCache(), [0], []
    for batch in batches:
        cache.merge((frame, frame / 2) for frame in batch)
        first_seen += [f for f in dict.fromkeys(batch) if f not in first_seen]
        positions.append(len(first_seen))
    log = [(frame, frame / 2) for frame in first_seen]
    for step, position in enumerate(positions):
        items, new_position = cache.since(position)
        # What every later batch merged, each frame once, in merge order.
        assert items == log[position:]
        assert new_position == len(cache) == len(log)
        assert dict(items).keys() == {
            frame for batch in batches[step:] for frame in batch
        } - set(first_seen[:position])


def test_a_checkpoint_in_the_earlier_cache_layout_still_resumes(
        tmp_path, monkeypatch):
    """Before the memo was append-only its pickled state also carried
    its LRU bound and eviction count; a format-3 stream checkpoint
    written that way still resumes."""
    old = ScoreCache.__new__(ScoreCache)
    old.__setstate__(
        {"scores": {4: 2.0, 1: 0.5}, "max_entries": 10, "evictions": 2})
    assert old.since(0) == ([(4, 2.0), (1, 0.5)], 2)
    old.merge([(6, 1.5)])  # the lock was rebuilt
    assert len(old) == 3

    stream = Session.open_stream(
        TrafficVideo("old-cache-layout", 600, seed=63), COUNT,
        initial_frames=400, config=FAST)
    live = stream.query().topk(3).guarantee(0.9).subscribe()
    stream.append(60)
    with monkeypatch.context() as patch:
        patch.setattr(ScoreCache, "__getstate__", lambda self: {
            "scores": dict(self.since(0)[0]), "max_entries": None,
            "evictions": 0})
        stream.checkpoint(tmp_path / "ck")
    blob = next((tmp_path / "ck").glob("state-*.pkl")).read_bytes()
    assert b"max_entries" in blob and b"evictions" in blob

    resumed = Session.resume(tmp_path / "ck")
    cache = resumed.shared_score_cache
    assert cache.since(0) == stream.shared_score_cache.since(0)
    assert resumed._maintainer.label_oracle.cache is cache
    re_live = resumed.query().topk(3).guarantee(0.9).subscribe()
    assert re_live.latest.to_json() == live.latest.to_json()
    for session in (stream, resumed):
        session.append(120)
    assert re_live.latest.to_json() == live.latest.to_json()

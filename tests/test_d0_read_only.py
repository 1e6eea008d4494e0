"""No query writes D0 (DESIGN.md §3, "Phase 2 costs its arithmetic").

Phase 2 reads the uncertain relation Phase 1 built — the entry's
``result.relation`` or a memoized window relation — in place and keeps
what it cleans in its own ``TopKCleaner``. Every query kind is run once
here against a relation whose bytes and derived tables are recorded
first: afterwards the four arrays hash the same and ``log_tables()``
is still the very object it was. Bare threads sharing one relation
serve the bytes a serial run does. A relation's arrays refuse writes
in any case (``test_relation_read_only.py``); what these tests add is
every query kind run end to end against one shared D0.
"""

from __future__ import annotations

import hashlib
import sys
import threading
from contextlib import contextmanager

import pytest

from repro import EverestConfig, QueryService, Session, VideoCorpus
from repro.core.uncertain import restrict_relation
from repro.oracle import counting_udf
from repro.video import TrafficVideo

FAST = EverestConfig.fast()
UDF = counting_udf("car")
WAIT = 60.0


def _digest(relation) -> str:
    digest = hashlib.sha256()
    for field in ("pmf", "cdf", "certain", "exact_scores"):
        digest.update(getattr(relation, field).tobytes())
    return digest.hexdigest()


@contextmanager
def untouched(*relations):
    """Assert the block leaves every relation's bytes and tables as
    they were."""
    before = [(_digest(r), r.log_tables()) for r in relations]
    yield
    for relation, (digest, tables) in zip(relations, before):
        assert _digest(relation) == digest
        assert relation.log_tables() is tables


def _session(name="d0", seed=91, frames=700):
    session = Session(TrafficVideo(name, frames, seed=seed), UDF, config=FAST)
    session.phase1()
    return session


def _query(target, k=5, window=0):
    query = target.query().topk(k).guarantee(0.9)
    return query.windows(size=window) if window else query


def test_a_frame_query():
    session = _session()
    with untouched(session.phase1().relation):
        for k in (3, 5, 12):
            _query(session, k).run()


def test_tumbling_windows():
    session = _session()
    query = _query(session, window=30)
    plan = query.plan()
    windows = session.phase1().window_relation(
        window_size=plan.window_size, floor=UDF.score_floor,
        step=plan.window_step)
    with untouched(session.phase1().relation, windows):
        query.run()
        _query(session, 8, window=30).run()


def test_a_batch_sessions_restricted_window():
    session = _session()
    query = _query(session).window(seconds=10.0)
    relation = session.phase1().relation
    assert restrict_relation(relation, query.plan().frame_ranges) \
        is not relation
    with untouched(relation):
        query.run()


def _stream():
    return Session.open_stream(
        TrafficVideo("d0-live", 600, seed=92), UDF,
        initial_frames=240, window_seconds=5.0, config=FAST)


def test_a_windowed_streams_refresh_reads_the_window_as_it_is():
    stream, twin = _stream(), _stream()
    query = _query(stream, 3)
    relation = stream.phase1().relation
    # The identity restriction.
    assert restrict_relation(relation, query.plan().frame_ranges) \
        is relation
    with untouched(relation):
        live = query.subscribe()
    # The append's refresh ran on the new entry: it is still the one a
    # stream without a subscription builds.
    result = stream.append(60)
    twin.append(60)
    assert result.reports == [live.latest]
    assert _digest(stream.phase1().relation) \
        == _digest(twin.phase1().relation)


def test_a_corpus_query():
    corpus = VideoCorpus.open(
        [TrafficVideo("d0-cam1", 420, seed=93),
         TrafficVideo("d0-cam2", 420, seed=94)], UDF, config=FAST)
    merged = corpus.merged_state().entry.relation
    members = [m.session.phase1().relation for m in corpus.members]
    with untouched(merged, *members):
        corpus.query().topk(4).guarantee(0.95).run()
    assert corpus.merged_state().entry.relation is merged


@pytest.mark.parametrize("use_processes", [False, True])
def test_a_service_batch(use_processes):
    with QueryService(workers=2, use_processes=use_processes) as service:
        session = service.open_session(
            TrafficVideo("d0-service", 700, seed=95), UDF, config=FAST)
        relation = session.phase1().relation
        with untouched(relation):
            futures = [
                service.submit(_query(session, k, window))
                for k in (3, 5, 8) for window in (0, 30)]
            service.gather(futures, timeout=WAIT)


def test_threads_sharing_one_relation_serve_the_serial_bytes():
    """Four threads x 20 queries on one session, switching often: every
    thread reads the one D0 (and its score cache) while the others
    clean."""
    shapes = [(k, window) for k in (3, 5, 8, 12, 20) for window in (0, 30)]
    twin = _session("d0-race", 96)
    serial = [_query(twin, k, window).run().to_json()
              for k, window in shapes]
    session = _session("d0-race", 96)
    served = {}
    barrier = threading.Barrier(4)

    def client(name):
        barrier.wait(timeout=WAIT)
        served[name] = [
            _query(session, k, window).run().to_json()
            for _ in range(2) for k, window in shapes]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with untouched(session.phase1().relation):
            threads = [threading.Thread(target=client, args=(name,))
                       for name in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=WAIT)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert [served[name] for name in range(4)] == [serial + serial] * 4

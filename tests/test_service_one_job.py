"""One job through the service, one counter catalog (DESIGN.md §8/§10).

Three kinds of pins:

* **Bytes frozen.** ``GET /metrics`` and ``GET /stats`` for a fixed,
  populated gateway, and the 400 bodies of every wire validation,
  compared against goldens under ``tests/data/`` recorded *before* the
  request path was collapsed — exposition order, ``# HELP`` / ``# TYPE``
  lines and number formatting included.
* **Shape pinned.** ``service/service.py`` has one scheduler payload,
  one place that builds a ``JobOutcome``, one statement of the lane
  rule and no ``id()``-keyed table; ``gateway/metrics.py`` has one
  ``count``.
* **The defects the copies had drifted into**, each failing before the
  collapse: the service outliving its sessions, a trace and a plan
  naming a lane that did not run, a worker after a pool restart sent
  less of the score cache than it lacked — and a session outliving its
  process-lane service. (The
  shared exception instance sits next to its scheduler twin in
  ``test_scheduler_regressions.py``.)

Regenerate the goldens after an intentional exposition change with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_service_one_job.py
"""

from __future__ import annotations

import ast
import dataclasses
import gc
import json
import multiprocessing
import os
import pathlib
import sys
import threading
import weakref

import pytest

import repro
from repro import EverestConfig, QueryService, Session, VideoCorpus
from repro.gateway import Gateway, GatewayConfig, QuotaPolicy
from repro.oracle import counting_udf
from repro.trace import NULL_TRACER, Tracer
from repro.video import TrafficVideo
from test_service import WorkerKillingTraffic

GOLDEN_DIR = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(repro.__file__).resolve().parent
WAIT = 120.0


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


def _check_golden(name: str, text: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        path.write_text(text, "utf-8")
    assert text == path.read_text("utf-8")


# ----------------------------------------------------------------------
# (i) Bytes frozen.

@pytest.fixture(scope="module")
def populated():
    """``(metrics text, stats payload)`` of one fixed busy gateway.

    Real traffic where it is cheap — two tenants' queries (one build,
    hits), a corpus query, a plain and a windowed stream with an append
    and a tick, a rate refusal on each bucket, a closed-service refusal
    — and direct
    ledger entries for what only a race produces (the other two reason
    codes, a failed query, a refresh error, a slow query), for the
    family nothing increments, and for a tenant label the wire would
    refuse. Every request is drained before the next, so the order of
    every float addition is fixed.
    """
    service = QueryService(
        workers=1, use_processes=False, tracer=NULL_TRACER)
    config = GatewayConfig(
        video_kwargs={"num_frames": 500, "seed": 5},
        tenant_quotas={"bob": QuotaPolicy(rate=1.0, burst=1)},
    )
    gateway = Gateway(service, config=config, clock=FakeClock())

    def post(path, body, expect):
        status, payload = gateway.handle("POST", path, body)
        assert status == expect, payload
        assert service.drain(WAIT)
        return payload

    post("/query", {"tenant": "alice", "spec": "count[car]/traffic",
                    "k": 3}, 202)
    post("/query", {"tenant": "alice", "spec": "count[car]/traffic",
                    "k": 5, "guarantee": 0.8}, 202)
    post("/query", {"tenant": "bob", "spec": "count[car]/traffic",
                    "k": 4}, 202)
    post("/query", {"tenant": "bob", "spec": "count[car]/traffic",
                    "k": 4}, 429)
    post("/query", {"tenant": "alice",
                    "spec": "count[car]@{traffic,dashcam}", "k": 3}, 202)
    post("/stream", {"tenant": "dave", "stream": "s1",
                     "spec": "count[car]/traffic", "initial_frames": 300,
                     "k": 3}, 201)
    post("/append", {"tenant": "dave", "stream": "s1", "frames": 60}, 200)
    post("/stream", {"tenant": "dave", "stream": "w1",
                     "spec": "count[car]/dashcam", "initial_frames": 300,
                     "k": 3, "window": 8.0}, 201)
    post("/tick", {"tenant": "dave", "stream": "w1", "frames": 30}, 200)
    post("/append", {"tenant": "bob", "stream": "s1", "frames": 20}, 200)
    post("/append", {"tenant": "bob", "stream": "s1", "frames": 20}, 429)
    gateway._count_rejection("carol", "max_inflight")
    gateway._count_rejection("carol", "max_pending")
    metrics = gateway.metrics
    metrics.count("queries_failed", "carol")
    metrics.count("append_errors", "dave")
    metrics.count("appends_dropped", "dave")
    metrics.count("slow_queries", "alice")
    metrics.count("queries_submitted", 'te"na\nt\\x')
    metrics.observe_latency("query", 0.25)
    metrics.observe_latency("query", 0.1 + 0.2)
    metrics.observe_latency("http", 2.0)
    service.close()
    post("/query", {"tenant": "alice", "spec": "count[car]/traffic",
                    "k": 3}, 503)
    status, text = gateway.handle("GET", "/metrics")
    assert status == 200
    status, stats = gateway.handle("GET", "/stats")
    assert status == 200
    gateway.close()
    return text, stats


def test_metrics_exposition_is_byte_frozen(populated):
    text, _ = populated
    _check_golden("gateway_metrics.txt", text)
    # The golden is only worth its bytes if the state is populated:
    # every counter family has a sample, every reason code a refusal.
    families = [line.split()[2] for line in text.splitlines()
                if line.startswith("# TYPE everest_gateway_")]
    for family in families:
        assert any(line.startswith(family) for line in text.splitlines()
                   if not line.startswith("#")), family
    for reason in ("rate", "max_inflight", "max_pending", "closed"):
        assert f'reason="{reason}"' in text
    assert r'tenant="te\"na\nt\\x"' in text


def test_stats_json_is_byte_frozen(populated):
    _, stats = populated
    assert len(stats["tenants"]) >= 2
    _check_golden("gateway_stats.json", json.dumps(stats, indent=1) + "\n")


#: Every validation `gateway/wire.py` performs itself (spec grammar
#: errors belong to the registry), one body each.
MALFORMED = [
    ("/query", None),
    ("/query", {}),
    ("/query", {"spec": "count[car]/traffic", "surprise": 1}),
    ("/query", {"spec": "count[car]/traffic", "tenant": ""}),
    ("/query", {"spec": "count[car]/traffic", "tenant": "x" * 129}),
    ("/query", {"spec": "count[car]/traffic", "tenant": 'a"b'}),
    ("/query", {"spec": "count[car]/traffic", "k": True}),
    ("/query", {"spec": "count[car]/traffic", "k": 0}),
    ("/query", {"spec": "count[car]/traffic", "guarantee": 1.5}),
    ("/query", {"spec": "count[car]/traffic", "guarantee": "high"}),
    ("/query", {"spec": "count[car]/traffic", "window_step": 0}),
    ("/query", {"spec": "count[car]/traffic", "window_step": 2.0}),
    ("/query", {"spec": "count[car]@{a,b}", "window": 5}),
    ("/query", {"spec": "count[car]/traffic?window=5", "window": 5}),
    ("/stream", []),
    ("/stream", {"stream": "s", "initial_frames": 9}),
    ("/stream", {"stream": " ", "spec": "count[car]/traffic",
                 "initial_frames": 9}),
    ("/stream", {"stream": "s", "spec": "count[car]@{a,b}",
                 "initial_frames": 9}),
    ("/stream", {"stream": "s", "spec": "count[car]/traffic"}),
    ("/stream", {"stream": "s", "spec": "count[car]/traffic",
                 "initial_frames": 9, "guarantee": 0}),
    ("/stream", {"stream": "s", "spec": "count[car]/traffic",
                 "initial_frames": 9, "window": -1}),
    ("/stream", {"stream": "s", "spec": "count[car]/traffic?window=5",
                 "initial_frames": 9, "window": 6}),
    ("/stream", {"stream": "s", "spec": "count[car]/traffic",
                 "initial_frames": 9, "frames": 3}),
    ("/append", "frames"),
    ("/append", {"stream": 7, "frames": 3}),
    ("/append", {"stream": "s"}),
    ("/append", {"stream": "s", "frames": 0}),
    ("/append", {"stream": "s", "frames": 3, "k": 1}),
    ("/tick", {"stream": "", "frames": 3}),
    ("/tick", {"stream": "s"}),
    ("/tick", {"stream": "s", "frames": 1.5}),
    ("/tick", {"stream": "s", "frames": 3, "tenant": 9}),
]


def test_wire_refusals_are_byte_frozen():
    with Gateway(workers=1, use_processes=False) as gateway:
        answers = []
        for path, body in MALFORMED:
            status, payload = gateway.handle("POST", path, body)
            assert status == 400, (path, body, payload)
            answers.append({"path": path, "body": body, **payload})
        assert gateway.service.stats().submitted == 0
    _check_golden(
        "gateway_wire_400.json", json.dumps(answers, indent=1) + "\n")


# ----------------------------------------------------------------------
# (ii) Shape pinned.

def _tree(relative: str) -> ast.Module:
    return ast.parse((SRC / relative).read_text("utf-8"))


def _enclosing_functions(tree: ast.Module, wanted) -> set:
    """Names of the functions containing a node ``wanted`` accepts."""
    found = set()
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(wanted(node) for node in ast.walk(function)):
                found.add(function.name)
    return found


def _appends_to(attribute: str):
    """Accepts ``self.<attribute>.append(...)``."""
    return lambda node: (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "append"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == attribute)


def _calls(name: str):
    return lambda node: (isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Name)
                         and node.func.id == name)


def test_service_has_one_scheduler_payload():
    """Whatever carries a trace through the scheduler is the payload."""
    payloads = [
        node.name for node in _tree("service/service.py").body
        if isinstance(node, ast.ClassDef) and any(
            isinstance(item, ast.AnnAssign) and item.target.id == "trace"
            for item in node.body)
    ]
    assert payloads == ["_Job"]


def test_service_settles_in_one_place():
    tree = _tree("service/service.py")
    assert _enclosing_functions(tree, _calls("JobOutcome")) == {"_settle"}
    # A query's outcome is the detail its job produced: only _settle
    # records one, and nothing in the service builds a second record.
    assert _enclosing_functions(tree, _appends_to("_outcomes")) \
        == {"_settle"}
    assert not any(isinstance(node, ast.ClassDef) and "Outcome" in node.name
                   for node in ast.walk(tree))


def test_service_keys_nothing_by_id():
    tree = _tree("service/service.py")
    assert not any(_calls("id")(node) for node in ast.walk(tree))


def test_the_process_lane_is_named_in_one_place():
    names_it = _enclosing_functions(
        _tree("service/service.py"),
        lambda node: isinstance(node, ast.Constant)
        and node.value == "process")
    assert names_it == {"_lane"}


def test_gateway_metrics_has_one_count():
    counters = {
        node.name for node in ast.walk(_tree("gateway/metrics.py"))
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("count")
    }
    assert counters == {"count", "count_append"}


# ----------------------------------------------------------------------
# (iii) A snapshot's counters agree with each other.

def test_every_stats_snapshot_is_consistent_under_load():
    with QueryService(
            workers=2, use_processes=False, max_pending=None) as service:
        session = service.open_session(
            TrafficVideo("snap", 300, seed=61), counting_udf("car"),
            config=EverestConfig.fast())
        query = session.query().topk(2).guarantee(0.8)
        service.submit(query).result(WAIT)  # Phase 1 out of the way
        stop, torn = threading.Event(), []

        def sample():
            while not stop.is_set():
                stats = service.stats()
                settled = stats.completed + stats.failed + stats.pending
                if settled > stats.submitted:
                    torn.append(stats.as_dict())

        def submit():
            for _ in range(50):
                service.submit(query)

        sampler = threading.Thread(target=sample)
        submitters = [threading.Thread(target=submit) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # tear what can be torn
        try:
            sampler.start()
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(WAIT)
            assert service.drain(WAIT)
        finally:
            stop.set()
            sampler.join(WAIT)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (sampler, *submitters))
        assert torn == []
        assert service.stats().completed == 201


# ----------------------------------------------------------------------
# The defects.

FAST = EverestConfig.fast()


def _plan(session, k):
    return session.query().topk(k).guarantee(0.9).plan()


def _live_shipped() -> int:
    from repro.parallel.pool import Shipped

    gc.collect()
    return sum(isinstance(o, Shipped) for o in gc.get_objects())


def test_the_service_does_not_outlive_its_sessions():
    """``artifact_entries=1`` used to bound nothing on the process
    lane: the service pinned every session it had seen (each pinning
    its leased entry) and a pickled spec per session, forever."""
    udf = counting_udf("car")
    blobs = _live_shipped()
    with QueryService(
            workers=2, use_processes=True, artifact_entries=1) as service:
        sessions = [
            service.open_session(
                TrafficVideo(f"gone-{i}", 300, seed=70 + i), udf,
                config=FAST)
            for i in range(4)
        ]
        for session in sessions:
            service.submit(_plan(session, 3), session=session).result(WAIT)
        assert _live_shipped() == blobs + 4
        watchers = [weakref.ref(session) for session in sessions]
        del sessions, session
        assert _live_shipped() == blobs
        assert [watcher() for watcher in watchers] == [None] * 4
        stats = service.stats()
        assert (stats.resident_entries, stats.evictions) == (1, 3)


def _worker_memo_keys() -> set:
    from repro.parallel.pool import _WORKER_MEMO

    return set(_WORKER_MEMO)


def test_a_pool_worker_does_not_outlive_the_sessions_it_was_sent():
    """The worker memoized every session spec it was ever sent, for the
    pool's lifetime: after four sessions queried and dropped one after
    another it held four (1, 2, 3, 4 as they came). A spec whose
    session is gone is dropped with the worker's next task."""
    udf = counting_udf("car")
    held = []
    with QueryService(
            workers=1, use_processes=True, artifact_entries=1) as service:
        for i in range(4):
            session = service.open_session(
                TrafficVideo(f"dropped-{i}", 300, seed=90 + i), udf,
                config=FAST)
            service.submit(_plan(session, 3), session=session).result(WAIT)
            held.append(len(service._pool.call(_worker_memo_keys)))
            del session
            gc.collect()
        held.append(len(service._pool.call(_worker_memo_keys)))
    assert held == [1, 1, 1, 1, 0]


def _sent(monkeypatch):
    """What each process-lane batch carried of its spec, as
    ``(spec key, whether the blob went, score-cache tail)``."""
    from repro.service.backend import SpecHandle

    sent, real = [], SpecHandle.wire

    def spy(handle, held):
        blob, tail, after = real(handle, held)
        sent.append((handle.key, blob is not None, tail))
        return blob, tail, after

    monkeypatch.setattr(SpecHandle, "wire", spy)
    return sent


def _children():
    return {child.pid for child in multiprocessing.active_children()}


def test_a_held_session_keeps_what_the_pool_has_of_it(monkeypatch):
    sent = _sent(monkeypatch)
    with QueryService(workers=1, use_processes=True) as service:
        session = service.open_session(
            TrafficVideo("held", 300, seed=81), counting_udf("car"),
            config=FAST)
        sizes = []
        for k in (2, 4, 6):
            gc.collect()
            sizes.append(len(session.shared_score_cache))
            service.submit(_plan(session, k), session=session).result(WAIT)
    # Pickled once, and its blob sent once. Each batch carried the
    # cache's tail past what the one worker held — the cache's length
    # when the batch before it was sent: forward only.
    assert len({key for key, _, _ in sent}) == 1
    assert [blob for _, blob, _ in sent] == [True, False, False]
    assert sizes == sorted(sizes) and sizes[1] > 0
    assert [len(tail) for _, _, tail in sent] == [
        after - before for before, after in zip([0, *sizes], sizes)]


def test_close_detaches_attached_streams_and_nothing_else():
    udf = counting_udf("car")
    service = QueryService(workers=1, use_processes=False)
    stream = service.open_stream(
        TrafficVideo("detach", 500, seed=83), udf, initial_frames=300,
        config=FAST)
    adopted = service.open_session(
        TrafficVideo("mine", 300, seed=84), udf, config=FAST)
    mine = adopted.refresh_dispatcher = object()
    assert stream.refresh_dispatcher is not None
    service.close()
    assert stream.refresh_dispatcher is None
    assert adopted.refresh_dispatcher is mine


@pytest.mark.parametrize("use_processes", [False, True])
def test_a_session_outlives_its_service(use_processes):
    """A closed service's sessions keep answering, inline. The process
    lane used to send their next Phase-1 build to the shut-down pool
    (``ServiceClosedError: process pool is shut down``) — and a sweep's
    sessions always outlive the service it submitted to."""
    udf = counting_udf("car")
    video = TrafficVideo("outlive", 300, seed=87)
    reseeded = dataclasses.replace(FAST, seed=FAST.seed + 1)
    reference = Session(video, udf, config=FAST)

    def answers(session):
        query = session.query().topk(3).guarantee(0.9)
        return [query.run().to_json(),
                query.with_config(reseeded).run().to_json()]

    service = QueryService(workers=2, use_processes=use_processes)
    session = service.open_session(video, udf, config=FAST)
    first = session.query().topk(3).guarantee(0.9).run().to_json()
    service.close()
    assert answers(session) == answers(reference)
    assert first == answers(reference)[0]


def _execute_span(tracer, future):
    trace = tracer.get(future.trace_id)
    (execute,) = [s for s in trace.spans if s.name == "execute"]
    return execute


@pytest.fixture(scope="module")
def pooled_traced():
    """A traced process-lane service, a stream and a closed session."""
    udf = counting_udf("car")
    tracer = Tracer()
    with QueryService(
            workers=2, use_processes=True, tracer=tracer) as service:
        stream = Session.open_stream(
            TrafficVideo("lane-live", 500, seed=57), udf,
            initial_frames=300, config=FAST)
        closed = service.open_session(
            TrafficVideo("lane-fixed", 300, seed=58), udf, config=FAST)
        yield service, tracer, stream, closed


def test_the_trace_names_the_lane_that_ran(pooled_traced):
    service, tracer, stream, closed = pooled_traced
    # A corpus query runs inline — and says so, streaming member or not.
    for corpus in (VideoCorpus([stream, closed]), VideoCorpus([closed])):
        future = service.submit(corpus.query().topk(3).guarantee(0.85))
        future.result(WAIT)
        assert _execute_span(tracer, future).attrs["lane"] == "inline"
    # So does a stream's own query; a closed session still ships.
    for session, lane in ((stream, "inline"), (closed, "process")):
        future = service.submit(session.query().topk(3).guarantee(0.9))
        future.result(WAIT)
        assert _execute_span(tracer, future).attrs["lane"] == lane


def test_the_plan_names_the_lane_that_will_run(pooled_traced):
    service, tracer, stream, closed = pooled_traced
    for session, lane in ((stream, "inline"), (closed, "process")):
        plan = service.plan_workload(
            [session.query().topk(4).guarantee(0.9)])
        (item,) = plan.items
        assert item.lane == lane == service._lane(session)
        assert f"lane={lane}" in plan.explain()
        # The plan and execution agree.
        (future,) = service.submit_plan(plan)
        future.result(WAIT)
        assert _execute_span(tracer, future).attrs["lane"] == lane


def test_a_pooled_batch_returns_exactly_its_cache_misses(monkeypatch):
    """A worker ships back the union of its plans' fresh revelations —
    over a recorded batch sequence, exactly the diff of its whole score
    cache across the batch (the frames neither the parent shipped nor
    an earlier plan revealed)."""
    from repro.service.backend import _service_worker_run

    sent = _sent(monkeypatch)
    with QueryService(workers=1, use_processes=True) as service:
        session = service.open_session(
            TrafficVideo("revelations", 700, seed=102), counting_udf("car"),
            config=FAST)
        recorded = []
        real_call = service._pool.call

        def spy(fn, *args):
            result = real_call(fn, *args)
            if fn is _service_worker_run:
                recorded.append((args[0], sent[-1][2], result.new_scores))
            return result

        service._pool.call = spy
        # Whole workloads go out as one batch each: every plan but
        # the last of (3, 40) and (60, 8, 100) reveals frames too.
        for ks in ((3, 40), (5,), (60, 8, 100)):
            plan = service.plan_workload([
                session.query().topk(k).guarantee(0.9) for k in ks])
            service.gather(service.submit_plan(plan), timeout=WAIT)
        window = session.query().topk(4).guarantee(0.9).windows(size=30)
        service.submit(window.plan(), session=session).result(WAIT)

    assert [len(task.plans) for task, _, _ in recorded] == [2, 1, 3, 1]
    assert any(new_scores for _, _, new_scores in recorded)
    # Replay the sequence in this process on the spec the worker held.
    for task, tail, shipped_back in recorded:
        spec = task.spec.resolve()
        spec.merge(tail)
        cache = spec.session.shared_score_cache
        before = set(dict(cache.since(0)[0]))
        new_scores = _service_worker_run(task).new_scores
        diff = {frame: score for frame, score in cache.since(0)[0]
                if frame not in before}
        assert new_scores == diff == shipped_back


def test_a_batch_rescores_no_frame_the_parent_held_when_it_was_sent():
    """Two workers: a batch used to carry the cache's tail past the
    position the spec's previous batch left, wherever that batch ran,
    so a worker lacked what its sibling had been sent and re-scored
    it."""
    from repro.service.backend import _service_worker_run

    others = _children()
    with QueryService(workers=2, use_processes=True) as service:
        session = service.open_session(
            TrafficVideo("held-at-send", 700, seed=103), counting_udf("car"),
            config=FAST)
        cache, batches, rescored = session.shared_score_cache, [], []
        real_call = service._pool.call

        def spy(fn, *args):
            held = set(dict(cache.since(0)[0]))  # the cache only grows
            result = real_call(fn, *args)
            if fn is _service_worker_run:
                batches.append(len(args[0].plans))
                rescored.extend(sorted(set(result.new_scores) & held))
            return result

        service._pool.call = spy
        service.submit(_plan(session, 3), session=session).result(WAIT)
        futures = [
            service.submit(_plan(session, k), session=session, tenant=tenant)
            for k in range(4, 40, 3) for tenant in ("a", "b")]
        service.gather(futures, timeout=WAIT)
        assert len(_children() - others) == 2
    assert len(batches) > 2
    assert rescored == []


def test_a_pool_restart_forgets_what_the_dead_workers_were_sent(
        tmp_path, monkeypatch):
    """ROADMAP 6(v): after a restart the position past which a spec's
    batches send the score cache described workers that no longer
    existed, so later batches shipped a delta the new workers could
    not use and re-revealed physically."""
    from repro.errors import ServiceError

    udf = counting_udf("car")
    video = WorkerKillingTraffic("restart", 600, seed=101)
    fuse = tmp_path / "fuse"
    video.arm(fuse)
    fuse.unlink()  # armed (every copy knows the fuse), not yet lit

    with QueryService(workers=1, use_processes=False) as inline:
        twin = inline.open_session(video, udf, config=FAST)
        expected = [
            inline.submit(_plan(twin, k), session=twin).outcome(WAIT)
            for k in (3, 20)]

    sent, others = _sent(monkeypatch), _children()
    with QueryService(workers=1, use_processes=True) as service:
        session = service.open_session(video, udf, config=FAST)
        outcomes = [
            service.submit(_plan(session, 3), session=session).outcome(WAIT)]
        first = len(session.shared_score_cache)
        (worker,) = _children() - others
        fuse.touch()
        with pytest.raises(ServiceError):
            service.submit(_plan(session, 20), session=session).result(WAIT)
        assert not fuse.exists()
        cached = len(session.shared_score_cache)
        outcomes.append(
            service.submit(_plan(session, 20), session=session).outcome(WAIT))
        # The killed batch carried the first one's revelations; the
        # replacement worker was sent the spec and the whole cache …
        assert [(blob, len(tail)) for _, blob, tail in sent] == \
            [(True, 0), (False, first), (True, cached)] and cached > 0
        (replacement,) = _children() - others
        assert replacement != worker
    # … so it paid no physical confirmation for a frame the parent
    # already held: exactly what the inline lane pays for the plan.
    assert [o.report.to_json() for o in outcomes] == \
        [e.report.to_json() for e in expected]
    assert [o.fresh_confirm_calls for o in outcomes] == \
        [e.fresh_confirm_calls for e in expected]

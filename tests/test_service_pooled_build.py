"""Phase-1 builds on the process lane run in a pool worker (DESIGN.md §8).

The single-flight builder of ``SharedArtifacts.lease`` ships the one
build routine to the service's pool instead of running it on a
scheduler thread (two builds on two threads convoy on the GIL). This
file pins what that may and may not change: the entry that comes back
is the inline build's, field for field, but for the gradient buffers,
which carry no result; a traced query's trace loses nothing; waiters
on a failed build each get their own exception; and a service-bound
corpus's cold members build side by side.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import EverestConfig, Session
from repro.api.session import phase1_key
from repro.core.phase1 import run_phase1
from repro.corpus import VideoCorpus
from repro.oracle import counting_udf
from repro.parallel.pool import PersistentPool
from repro.service import QueryService, SharedArtifacts
from repro.service.backend import build_in_pool
from repro.trace import Tracer
from repro.video import TrafficVideo

WAIT = 60.0
FAST = EverestConfig.fast()


# ----------------------------------------------------------------------
# Pooled build == inline build.


def _differences(a, b, path="entry", seen=None):
    """Paths at which two object graphs differ, field by field."""
    seen = set() if seen is None else seen
    if id(a) in seen:
        return
    if type(a) is not type(b):
        yield f"{path} ({type(a).__name__} vs {type(b).__name__})"
    elif isinstance(a, np.ndarray):
        if (a.dtype, a.shape, a.tobytes()) != (b.dtype, b.shape, b.tobytes()):
            yield path
    elif isinstance(a, (int, float, str, bytes, type(None), np.generic)):
        if a != b and not (a != a and b != b):
            yield path
    elif isinstance(a, dict):
        seen.add(id(a))
        if list(a) != list(b):
            yield f"{path} (keys)"
            return
        for key in a:
            yield from _differences(a[key], b[key], f"{path}.{key}", seen)
    elif isinstance(a, (list, tuple)):
        seen.add(id(a))
        if len(a) != len(b):
            yield f"{path} (length)"
            return
        for index, pair in enumerate(zip(a, b)):
            yield from _differences(*pair, f"{path}[{index}]", seen)
    else:
        seen.add(id(a))
        # Every object an entry reaches keeps its state in __dict__; a
        # slotted or opaque one would have to be compared here first.
        yield from _differences(vars(a), vars(b), path, seen)


@pytest.fixture(scope="module")
def pool():
    with PersistentPool(2) as pool:
        yield pool


@pytest.mark.parametrize("seed,config", [
    (311, FAST), (312, FAST), (313, FAST), (314, FAST),
    (37, EverestConfig()),  # the default three-candidate grid
])
def test_a_pooled_build_is_the_inline_build(pool, seed, config):
    session = Session(
        TrafficVideo(f"svc-{seed}", 700, seed=seed), counting_udf("car"),
        config=config)
    args = (session.video, session.scoring,
            session.resolved_unit_costs(), config)
    inline = run_phase1(*args)
    pooled = build_in_pool(pool, *args)
    differing = list(_differences(inline, pooled))
    # Nothing differs: a fit ends with its gradients re-packed to zero
    # and its training caches dropped, which is what an unpickle gives.
    assert not differing, differing
    # The walk reached what matters (and would have listed it).
    assert inline.oracle_calls > 0
    assert inline.cost_model.total_seconds() > 0
    assert inline.relation.pmf.size > 0


def test_the_process_lane_builds_in_a_worker_and_answers_the_same_bytes(
        monkeypatch):
    import repro.service.artifacts as artifacts_module

    def refuse(*args):
        raise AssertionError("the process lane built on a service thread")

    monkeypatch.setattr(artifacts_module, "run_phase1", refuse)
    video = TrafficVideo("where", 600, seed=313)
    udf = counting_udf("car")
    with QueryService(workers=2, use_processes=True) as service:
        session = service.open_session(video, udf, config=FAST)
        report = session.query().topk(5).guarantee(0.9).run()
        stats = service.stats()
    assert (stats.builds, stats.hits, stats.resident_entries) == (1, 0, 1)
    inline = Session(video, udf, config=FAST)
    assert report.to_json() == inline.query().topk(5).guarantee(0.9) \
        .run().to_json()
    assert stats.build_seconds == \
        inline.phase1().cost_model.total_seconds()


def test_a_bare_store_and_a_pool_less_service_build_inline(monkeypatch):
    import repro.service.artifacts as artifacts_module

    def refuse(*args):
        raise AssertionError("an inline lane reached for a pool")

    monkeypatch.setattr(artifacts_module, "build_in_pool", refuse)
    video = TrafficVideo("inline", 400, seed=314)
    udf = counting_udf("car")
    bare = Session(video, udf, config=FAST).bind_service(SharedArtifacts())
    assert bare.phase1().oracle_calls > 0
    with QueryService(workers=2, use_processes=False) as service:
        session = service.open_session(video, udf, config=FAST)
        assert session.phase1().oracle_calls > 0
        assert service.stats().builds == 1


# ----------------------------------------------------------------------
# The in-program trace loses nothing.


def _build_spans(lane_processes: bool):
    """``(name, category, attrs)`` of everything under artifact_build."""
    tracer = Tracer()
    with QueryService(
            workers=1, use_processes=lane_processes,
            tracer=tracer) as service:
        session = service.open_session(
            TrafficVideo("traced", 700, seed=312), counting_udf("car"),
            config=FAST)
        future = service.submit(session.query().topk(3).guarantee(0.9))
        future.result(WAIT)
    trace = tracer.get(future.trace_id)
    assert all(not span.open for span in trace.spans)
    (build,) = [s for s in trace.spans if s.name == "artifact_build"]
    parents = {s.span_id: s.parent_id for s in trace.spans}

    def below(span) -> bool:
        parent = parents[span.span_id]
        while parent is not None and parent != build.span_id:
            parent = parents[parent]
        return parent == build.span_id

    spans, events = [], []
    for span in trace.spans:
        if below(span) and span.name != "worker_build":
            attrs = {k: v for k, v in span.attrs.items() if k != "process"}
            spans.append((span.name, span.category, attrs))
            events += [(name, attrs) for _, name, attrs in span.events]
    (root,) = [s for s in trace.spans
               if s.name == "worker_build"] or [build]
    events += [(name, attrs) for _, name, attrs in root.events]
    return spans, sorted(events, key=repr), build


def test_a_traced_pooled_build_keeps_the_inline_lanes_spans():
    inline_spans, inline_events, _ = _build_spans(False)
    pooled_spans, pooled_events, build = _build_spans(True)
    names = {name for name, _, _ in pooled_spans}
    assert {"block_miss", "requantize"} <= names
    assert pooled_spans == inline_spans
    assert pooled_events == inline_events
    assert build.attrs["warm"] is False
    assert build.attrs["sim_seconds_total"] > 0


# ----------------------------------------------------------------------
# Satellite 2: single-flight waiters share no exception instance.


class _Exploding(TrafficVideo):
    """Raises from the build while armed — once every other leaser of
    the round is a counted single-flight waiter."""

    def arm(self, store, waiters: int) -> None:
        self.armed, self.store, self.waiters = True, store, waiters

    def batch_pixels(self, indices):
        if self.armed:
            deadline = time.monotonic() + WAIT
            while self.store.stats.single_flight_waits < self.waiters \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            raise RuntimeError("build exploded", 7)
        return super().batch_pixels(indices)


def test_waiters_on_a_failed_build_each_raise_their_own_error():
    store = SharedArtifacts()
    video = _Exploding("boom", 400, seed=5)
    video.arm(store, waiters=2)
    udf = counting_udf("car")
    key = phase1_key(FAST)
    errors = []

    def lease():
        session = Session(video, udf, config=FAST).bind_service(store)
        try:
            store.lease(session, FAST, key)
        except RuntimeError as error:
            errors.append(error)

    threads = [threading.Thread(target=lease) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(WAIT)
    assert not any(thread.is_alive() for thread in threads)
    assert store.stats.single_flight_waits == 2
    assert len(errors) == 3 and len({id(e) for e in errors}) == 3
    (built,) = [e for e in errors if e.__cause__ is None]
    for error in errors:
        assert type(error) is RuntimeError
        assert error.args == ("build exploded", 7)
        assert error is built or error.__cause__ is built
    # The key is buildable again.
    video.armed = False
    session = Session(video, udf, config=FAST).bind_service(store)
    assert store.lease(session, FAST, key).oracle_calls > 0
    assert store.stats.builds == 1


# ----------------------------------------------------------------------
# Satellite 5: a service-bound corpus's cold members build side by side.


class _Meeting(TrafficVideo):
    """Notes whether its build overlapped a sibling's, in a worker."""

    def meet(self, directory: Path) -> None:
        self._room, self._home = str(directory), os.getpid()

    def batch_pixels(self, indices):
        room = Path(self._room)
        if os.getpid() != self._home \
                and not (room / f"in-{self.name}").exists():
            (room / f"in-{self.name}").touch()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if len(list(room.glob("in-*"))) == 2:
                    (room / f"met-{self.name}").touch()
                    break
                time.sleep(0.01)
        return super().batch_pixels(indices)


def test_a_service_bound_corpus_builds_its_cold_members_side_by_side(
        tmp_path):
    udf = counting_udf("car")

    def members(kind=TrafficVideo):
        return [kind("shard-a", 400, seed=311),
                kind("shard-b", 400, seed=312)]

    videos = members(_Meeting)
    for video in videos:
        video.meet(tmp_path)
    with QueryService(workers=2, use_processes=True) as service:
        corpus = VideoCorpus.open(videos, udf, config=FAST)
        report = service.submit(
            corpus.query().topk(4).guarantee(0.9)).result(WAIT)
        assert service.stats().builds == 2
    # Each build saw the other one in flight.
    assert sorted(p.name for p in tmp_path.glob("met-*")) == \
        ["met-shard-a", "met-shard-b"]
    serial = VideoCorpus.open(members(), udf, config=FAST)
    assert report.to_json() == serial.query().topk(4).guarantee(0.9) \
        .run().to_json()

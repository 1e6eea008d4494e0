"""Component tests for the service layer's moving parts.

The end-to-end contracts live in ``test_service_stress.py`` and
``test_service_differential.py``; here each mechanism is pinned in
isolation: scheduler fairness/admission/batching, the single-flight
artifact store with LRU eviction and the warm-start tier, the bounded
score cache, and the streaming attachment hooks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest
from conftest import served_cost

from repro import (
    AdmissionError,
    EverestConfig,
    QueryService,
    ServiceClosedError,
    Session,
)
from repro.errors import ConfigurationError, QueryError, ServiceError
from repro.oracle import counting_udf
from repro.oracle.cache import CachingOracle, ScoreCache
from repro.oracle.cost import CostModel
from repro.service.artifacts import (
    SharedArtifacts,
    artifact_digest,
    group_key,
)
from repro.service.scheduler import FairScheduler, JobOutcome
from repro.video import TrafficVideo

WAIT = 60.0


def _video(name="comp", seed=31, frames=600):
    return TrafficVideo(name, frames, seed=seed)


class WorkerKillingTraffic(TrafficVideo):
    """Kills the first *other* process that reads a frame while armed.

    The fuse is a file, so exactly one worker dies however many hold a
    copy of the video; the arming process itself is immune. The worker
    leaves its pid beside the fuse.
    """

    def arm(self, fuse) -> None:
        fuse.touch()
        self._fuse, self._home = str(fuse), os.getpid()

    def frame(self, index):
        if os.getpid() != self._home and os.path.exists(self._fuse):
            os.remove(self._fuse)
            with open(self._fuse + ".pid", "w") as victim:
                victim.write(str(os.getpid()))
            os._exit(1)
        return super().frame(index)


# ----------------------------------------------------------------------
# ScoreCache: append-only, thread-safe, pickle round-trip.

class TestScoreCache:
    def test_lookup_is_consistent_snapshot(self):
        cache = ScoreCache({1: 1.0, 2: 2.0})
        assert cache.lookup([1, 2, 3]) == {1: 1.0, 2: 2.0}

    def test_pickle_round_trip(self):
        import pickle

        cache = ScoreCache({5: 0.5})
        clone = pickle.loads(pickle.dumps(cache))
        assert dict(clone.since(0)[0]) == {5: 0.5}
        clone.merge([(6, 0.6)])  # the lock was rebuilt
        assert clone.since(0) == ([(5, 0.5), (6, 0.6)], 2)

    def test_caching_oracle_eviction_safe_and_charges_fully(self):
        video = _video(frames=64)
        cache = ScoreCache()
        ledger = CostModel()
        oracle = CachingOracle(
            counting_udf("car"), ledger, cache=cache,
            cost_key="oracle_confirm")
        scores = oracle.score(video, [0, 1, 2, 3, 0])
        assert scores.shape == (5,)
        assert scores[0] == scores[4]
        # Full accounting despite the cached repeat.
        assert oracle.calls == 5
        assert ledger.units("oracle_confirm") == 5
        assert oracle.fresh_calls == 4  # 0,1,2,3 (0 deduped)
        assert set(oracle.fresh_scores) == {0, 1, 2, 3}


# ----------------------------------------------------------------------
# FairScheduler: admission, fairness, batching, close semantics.

class TestFairScheduler:
    def _scheduler(self, run_batch, **kwargs):
        return FairScheduler(run_batch, **kwargs)

    def test_rejects_bad_parameters(self):
        run = lambda payloads: [JobOutcome() for _ in payloads]  # noqa: E731
        with pytest.raises(ServiceError):
            FairScheduler(run, workers=0)
        with pytest.raises(ServiceError):
            FairScheduler(run, workers=1, max_pending=0)
        with pytest.raises(ServiceError):
            FairScheduler(run, workers=1, max_batch=0)

    def test_least_charged_tenant_runs_first(self):
        gate = threading.Event()
        order = []

        def run(payloads):
            if payloads[0] == "gate":
                gate.wait(WAIT)
                return [JobOutcome(charge=0.0)]
            order.extend(payloads)
            return [
                JobOutcome(charge=10.0 if p.startswith("big") else 1.0)
                for p in payloads
            ]

        scheduler = self._scheduler(run, workers=1, max_batch=1)
        try:
            hold = scheduler.submit("gate", tenant="gate")
            time.sleep(0.05)  # the worker is now blocked on the gate
            futures = [
                scheduler.submit("big-0", tenant="big"),
                scheduler.submit("big-1", tenant="big"),
                scheduler.submit("small-0", tenant="small"),
                scheduler.submit("small-1", tenant="small"),
            ]
            gate.set()
            for future in futures:
                future.result(WAIT)
            hold.result(WAIT)
        finally:
            scheduler.close()
        # big-0 runs first (arrival order at equal charge 0), then the
        # cheapest-charged tenant each time: small (1 < 10), small
        # again (2 < 10), then big-1.
        assert order == ["big-0", "small-0", "small-1", "big-1"]
        charges = scheduler.charges()
        assert charges["big"] == 20.0 and charges["small"] == 2.0

    def test_same_key_jobs_batch_together(self):
        gate = threading.Event()
        batches = []

        def run(payloads):
            if payloads[0] == "gate":
                gate.wait(WAIT)
                return [JobOutcome()]
            batches.append(list(payloads))
            return [JobOutcome() for _ in payloads]

        scheduler = self._scheduler(run, workers=1, max_batch=3)
        try:
            scheduler.submit("gate", tenant="gate")
            time.sleep(0.05)
            futures = [
                scheduler.submit(f"job-{i}", tenant="t", batch_key="k")
                for i in range(4)
            ]
            gate.set()
            for future in futures:
                future.result(WAIT)
        finally:
            scheduler.close()
        assert [len(b) for b in batches] == [3, 1]

    def test_admission_bound_and_closed_errors(self):
        gate = threading.Event()

        def run(payloads):
            gate.wait(WAIT)
            return [JobOutcome() for _ in payloads]

        scheduler = self._scheduler(run, workers=1, max_pending=2)
        first = scheduler.submit("a")
        time.sleep(0.05)
        queued = [scheduler.submit("b"), scheduler.submit("c")]
        with pytest.raises(AdmissionError):
            scheduler.submit("d")
        gate.set()
        for future in (first, *queued):
            future.result(WAIT)
        scheduler.close()
        with pytest.raises(ServiceClosedError):
            scheduler.submit("e")

    def test_close_finishes_queued_jobs(self):
        done = []

        def run(payloads):
            time.sleep(0.01)
            done.extend(payloads)
            return [JobOutcome(value=p) for p in payloads]

        scheduler = self._scheduler(run, workers=2, max_batch=1)
        futures = [scheduler.submit(i) for i in range(6)]
        scheduler.close(wait=True)
        assert sorted(done) == list(range(6))
        assert [f.result(0) for f in futures] == list(range(6))

    def test_run_batch_exception_fails_the_whole_batch(self):
        def run(payloads):
            raise RuntimeError("backend exploded")

        scheduler = self._scheduler(run, workers=1)
        future = scheduler.submit("x")
        assert isinstance(future.exception(WAIT), RuntimeError)
        scheduler.close()
        assert scheduler.failed == 1

    def test_future_timeout(self):
        gate = threading.Event()

        def run(payloads):
            gate.wait(WAIT)
            return [JobOutcome() for _ in payloads]

        scheduler = self._scheduler(run, workers=1)
        future = scheduler.submit("slow")
        with pytest.raises(TimeoutError):
            future.result(0.05)
        with pytest.raises(TimeoutError):
            future.exception(0.05)
        assert not future.done()
        gate.set()
        future.result(WAIT)
        scheduler.close()

    def test_drain_waits_for_idle(self):
        def run(payloads):
            time.sleep(0.05)
            return [JobOutcome() for _ in payloads]

        scheduler = self._scheduler(run, workers=2)
        for i in range(4):
            scheduler.submit(i)
        assert scheduler.drain(WAIT)
        assert scheduler.snapshot()["pending"] == 0
        scheduler.close()


# ----------------------------------------------------------------------
# SharedArtifacts: single-flight, LRU, warm tier.

@pytest.fixture(scope="module")
def comp_cfg():
    return EverestConfig.fast()


def _session(cfg, name="comp", seed=31):
    return Session(_video(name, seed), counting_udf("car"), config=cfg)


class TestSharedArtifacts:
    def test_lease_builds_once_then_hits(self, comp_cfg):
        store = SharedArtifacts()
        from repro.api.session import phase1_key

        session = _session(comp_cfg)
        key = phase1_key(comp_cfg)
        first = store.lease(session, comp_cfg, key)
        other = _session(comp_cfg)  # different Session, same content
        second = store.lease(other, comp_cfg, key)
        assert first is second
        assert store.stats.builds == 1
        assert store.stats.hits == 1

    def test_concurrent_leases_single_flight(self, comp_cfg):
        store = SharedArtifacts()
        from repro.api.session import phase1_key

        key = phase1_key(comp_cfg)
        sessions = [_session(comp_cfg, seed=37) for _ in range(6)]
        entries = [None] * 6
        barrier = threading.Barrier(6)

        def lease(i):
            barrier.wait(WAIT)
            entries[i] = store.lease(sessions[i], comp_cfg, key)

        threads = [
            threading.Thread(target=lease, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT)
        assert store.stats.builds == 1
        assert all(entry is entries[0] for entry in entries)
        # Every non-builder resolves through exactly one store hit
        # (after waiting on the in-flight build, if it raced it).
        assert store.stats.hits == 5
        assert store.stats.single_flight_waits <= 5

    def test_failed_build_raises_everywhere_then_retries(self, comp_cfg):
        store = SharedArtifacts()

        class Boom(RuntimeError):
            pass

        class _FakeSession:
            class _V:
                name, seed = "boom", 0

                def __len__(self):
                    return 10
            video = _V()
            scoring = counting_udf("car")

            def resolved_unit_costs(self):
                raise Boom("no ledger for you")

        with pytest.raises(Boom):
            store.lease(_FakeSession(), comp_cfg, ("k", 1))
        # The key is buildable again — a real session now succeeds.
        session = _session(comp_cfg, seed=41)
        from repro.api.session import phase1_key

        entry = store.lease(session, comp_cfg, phase1_key(comp_cfg))
        assert entry is not None

    def test_lru_eviction_bounds_residency(self, comp_cfg):
        import dataclasses

        store = SharedArtifacts(max_entries=1)
        from repro.api.session import phase1_key

        session = _session(comp_cfg, seed=43)
        alt_cfg = dataclasses.replace(comp_cfg, seed=comp_cfg.seed + 1)
        store.lease(session, comp_cfg, phase1_key(comp_cfg))
        store.lease(session, alt_cfg, phase1_key(alt_cfg))
        assert store.stats.builds == 2
        assert store.stats.evictions == 1
        from repro.service.artifacts import group_key

        group = group_key(session.video, session.scoring)
        assert [store.resident((group, phase1_key(config)))
                for config in (comp_cfg, alt_cfg)] == [False, True]
        # The evicted key's ledger survives for merged accounting.
        assert len(store.phase1_ledgers()) == 2
        # The evicted key rebuilds on next lease.
        store.lease(session, comp_cfg, phase1_key(comp_cfg))
        assert store.stats.builds == 3
        # The rebuilt ledger replaces (bit-identically), never doubles.
        assert len(store.phase1_ledgers()) == 2

    def test_warm_tier_round_trip_and_corruption(self, comp_cfg, tmp_path):
        from repro.api.session import phase1_key

        key = phase1_key(comp_cfg)
        store = SharedArtifacts(warm_dir=tmp_path)
        session = _session(comp_cfg, seed=47)
        entry = store.lease(session, comp_cfg, key)
        assert store.stats.warm_writes == 1

        cold = SharedArtifacts(warm_dir=tmp_path)
        warm = cold.lease(_session(comp_cfg, seed=47), comp_cfg, key)
        assert cold.stats.builds == 0 and cold.stats.warm_hits == 1
        assert warm.relation.pmf.tobytes() == \
            entry.relation.pmf.tobytes()
        ledger = {
            k: warm.cost_model.seconds(k)
            for k in warm.cost_model.breakdown()
        }
        assert ledger == {
            k: entry.cost_model.seconds(k)
            for k in entry.cost_model.breakdown()
        }

        # Corrupt the checkpoint: the store treats it as a miss.
        artifact = (group_key(session.video, session.scoring), key)
        target = tmp_path / artifact_digest(artifact)
        for blob in target.glob("*"):
            blob.write_bytes(b"garbage")
        hurt = SharedArtifacts(warm_dir=tmp_path)
        rebuilt = hurt.lease(_session(comp_cfg, seed=47), comp_cfg, key)
        assert hurt.stats.builds == 1
        assert rebuilt.relation.pmf.tobytes() == \
            entry.relation.pmf.tobytes()

        # A format-6 checkpoint (an entry around a result object whose
        # class is gone) is refused by its manifest: a miss, rebuilt.
        blob = b"\x80\x04crepro.core.phase1\nPhase1Result\n."
        next(target.glob("state-*.pkl")).write_bytes(blob)
        manifest = json.loads((target / "manifest.json").read_text())
        manifest.update(
            format_version=6, sha256=hashlib.sha256(blob).hexdigest())
        (target / "manifest.json").write_text(json.dumps(manifest))
        stale = SharedArtifacts(warm_dir=tmp_path)
        rebuilt = stale.lease(_session(comp_cfg, seed=47), comp_cfg, key)
        assert (stale.stats.builds, stale.stats.warm_hits) == (1, 0)
        assert rebuilt.relation.pmf.tobytes() == \
            entry.relation.pmf.tobytes()
        manifest = json.loads((target / "manifest.json").read_text())
        assert manifest["format_version"] == 7

    def test_rejects_bad_bound(self):
        with pytest.raises(ConfigurationError):
            SharedArtifacts(max_entries=0)

    def test_group_key_unwraps_streams_and_digest_is_stable(self, comp_cfg):
        from repro.video.streaming import StreamingVideo

        video = _video("wrap", 53)
        stream = StreamingVideo(video, 300)
        udf = counting_udf("car")
        assert group_key(stream, udf) == group_key(video, udf)
        digest = artifact_digest((group_key(video, udf), ("k", 1)))
        assert digest == artifact_digest((group_key(video, udf), ("k", 1)))
        assert len(digest) == 32


# ----------------------------------------------------------------------
# QueryService odds and ends not covered by stress/differential tests.

class TestQueryServiceSurface:
    def test_submit_rejects_nonsense(self, comp_cfg):
        with QueryService(workers=1, use_processes=False) as service:
            session = service.open_session(
                _video("surface", 59), counting_udf("car"), config=comp_cfg)
            with pytest.raises(QueryError):
                service.submit("not a query")
            with pytest.raises(QueryError):
                service.submit(session.query().topk(3).plan(), session=None)

    def test_registry_names_and_submit_many(self, comp_cfg):
        with QueryService(workers=2, use_processes=False) as service:
            session = service.open_session(
                "traffic", "count[car]",
                num_frames=600, seed=61, config=comp_cfg)
            queries = [
                session.query().topk(k).guarantee(0.9) for k in (3, 4)]
            reports = service.gather(
                [service.submit(query) for query in queries], timeout=WAIT)
            assert [r.k for r in reports] == [3, 4]
            assert all(r.confidence >= 0.9 for r in reports)

    def test_direct_session_execute_shares_the_store(self, comp_cfg):
        with QueryService(workers=1, use_processes=False) as service:
            one = service.open_session(
                _video("direct", 67), counting_udf("car"), config=comp_cfg)
            two = service.open_session(
                _video("direct", 67), counting_udf("car"), config=comp_cfg)
            # Bypassing submit() entirely still goes single-flight.
            a = one.query().topk(3).guarantee(0.9).run()
            b = two.query().topk(3).guarantee(0.9).run()
            assert service.stats().builds == 1
            assert a.answer_ids == b.answer_ids

    def test_attach_stream_requires_streaming_session(self, comp_cfg):
        with QueryService(workers=1, use_processes=False) as service:
            session = Session(
                _video("att", 71), counting_udf("car"), config=comp_cfg)
            with pytest.raises(QueryError):
                service.attach_stream(session)

    def test_stream_through_service_equals_plain_stream(self, comp_cfg):
        plain = Session.open_stream(
            _video("svc-live", 73, frames=900), counting_udf("car"),
            initial_frames=600, config=comp_cfg)
        plain_live = plain.query().topk(3).guarantee(0.9).subscribe()
        plain.append(150)

        with QueryService(workers=2, use_processes=False) as service:
            stream = service.open_stream(
                _video("svc-live", 73, frames=900), counting_udf("car"),
                initial_frames=600, config=comp_cfg, tenant="live")
            live = stream.query().topk(3).guarantee(0.9).subscribe()
            result = stream.append(150)
            assert len(result.reports) == 1
            assert live.latest.to_json() == plain_live.latest.to_json()
            assert service.tenant_charges().get("live", 0.0) >= 0.0
            assert service.stats().completed >= 1
        # Detached on close: further appends run inline, no scheduler.
        assert stream.refresh_dispatcher is None
        after = stream.append(100)
        assert after.reports == [live.latest]
        assert live.latest.num_frames == stream.watermark

    def test_sibling_streams_own_their_block_inference(self, comp_cfg):
        def open_and_append():
            stream = service.open_stream(
                _video("twin", 79, frames=900), counting_udf("car"),
                initial_frames=600, config=comp_cfg)
            live = stream.query().topk(3).guarantee(0.9).subscribe()
            stream.append(120)
            return stream, live

        with QueryService(workers=1, use_processes=False) as service:
            first, first_live = open_and_append()
            second, second_live = open_and_append()
            # A service shares no proxy-inference blocks between live
            # streams: the sibling infers the same footage for itself
            # and serves the same answer.
            assert second._maintainer.blocks \
                is not first._maintainer.blocks
            assert first._maintainer.fresh_inferred_frames > 0
            assert second._maintainer.fresh_inferred_frames \
                == first._maintainer.fresh_inferred_frames
            assert second_live.latest.to_json() \
                == first_live.latest.to_json()

    def test_submitted_streams_never_take_the_process_lane(self, comp_cfg):
        # A streaming session submitted through the service must stay
        # inline even with a pool: the process lane would snapshot the
        # video at its current watermark and serve stale answers after
        # appends.
        with QueryService(workers=2, use_processes=True) as service:
            stream = service.open_stream(
                _video("lane", 89, frames=900), counting_udf("car"),
                initial_frames=600, config=comp_cfg)
            before = service.submit(
                stream.query().topk(3).guarantee(0.9),
            ).result(WAIT)
            assert before.num_frames == 600
            stream.append(200)
            after = service.submit(
                stream.query().topk(3).guarantee(0.9),
            ).result(WAIT)
            # The report tracks the live watermark, not a frozen blob.
            assert after.num_frames == 800

    def test_the_plan_reads_a_bootstrapped_stream_warm(self, comp_cfg):
        with QueryService(workers=1, use_processes=False) as service:
            stream = service.open_stream(
                _video("warm", 97, frames=900), counting_udf("car"),
                initial_frames=600, config=comp_cfg)
            query = stream.query().topk(3).guarantee(0.9)
            assert not service.plan_workload([query]).items[0].warm
            stream.phase1()
            # Bootstrapped: an ad-hoc query pays no Phase-1 build.
            assert service.plan_workload([query]).items[0].warm

    def test_submit_refuses_window_less_plans_on_a_windowed_stream(
            self, comp_cfg):
        # The inline lane must apply the session's own guard: the
        # maintained relation only covers the open window, so a bare
        # plan would be answered window-scoped yet labelled full-prefix.
        with QueryService(workers=1, use_processes=False) as service:
            stream = service.open_stream(
                _video("bare", 101, frames=900), counting_udf("car"),
                initial_frames=600, window_seconds=10.0, config=comp_cfg)
            plan = stream.query().topk(3).guarantee(0.9).plan()
            bare = dataclasses.replace(
                plan, frame_ranges=None, window_seconds=None)
            with pytest.raises(QueryError, match="sliding window"):
                stream.execute(bare)
            with pytest.raises(QueryError, match="sliding window"):
                service.submit(bare, session=stream).result(WAIT)
            windowed = service.submit(plan, session=stream).result(WAIT)
            assert windowed.num_tuples <= stream.watermark - stream.window_lo

    def test_submitted_stream_queries_count_fresh_confirms(self, comp_cfg):
        with QueryService(workers=1, use_processes=False) as service:
            stream = service.open_stream(
                _video("adhoc", 103, frames=900), counting_udf("car"),
                initial_frames=600, config=comp_cfg)
            query = stream.query().topk(3).guarantee(0.9)
            future = service.submit(query)
            report = future.result(WAIT)
            labels = stream.phase1().oracle_calls
            assert report.oracle_calls > labels
            # Ad-hoc confirmations are physical work the stream paid.
            assert future.outcome(WAIT).fresh_confirm_calls > 0
            # ... once: the same query again hits the stream's cache.
            again = service.submit(query)
            assert again.result(WAIT).to_json() == report.to_json()
            assert again.outcome(WAIT).fresh_confirm_calls == 0

    def test_gather_timeout_message(self, comp_cfg):
        with QueryService(workers=1, use_processes=False) as service:
            session = service.open_session(
                _video("slow", 83), counting_udf("car"), config=comp_cfg)
            future = service.submit(session.query().topk(3).guarantee(0.9))
            with pytest.raises(TimeoutError):
                service.gather([future], timeout=0.0)
            assert future.result(WAIT) is not None

    def test_a_dead_pool_worker_fails_only_its_batch(
            self, comp_cfg, tmp_path):
        # ROADMAP 4(i): an OOM-killed worker used to wedge every later
        # process-lane batch until the service restarted.
        video = WorkerKillingTraffic("fuse", 600, seed=101)
        video.arm(tmp_path / "fuse")
        (tmp_path / "fuse").unlink()  # armed, not yet lit
        with QueryService(workers=2, use_processes=True) as service:
            session = service.open_session(
                video, counting_udf("car"), config=comp_cfg)
            # The build runs in a pool worker too (the next test lights
            # the fuse under it); this one dies in Phase 2.
            session.phase1()
            (tmp_path / "fuse").touch()
            plan = session.query().topk(3).guarantee(0.9).plan()
            with pytest.raises(ServiceError) as caught:
                service.submit(plan, session=session).result(WAIT)
            assert isinstance(caught.value.__cause__, BrokenProcessPool)
            assert not (tmp_path / "fuse").exists()
            # The failed batch recorded no Phase-2 ledger.
            assert service.outcomes() == []
            builds = service.stats().builds
            # The same plan again: a fresh pool, the same artifact.
            report = service.submit(plan, session=session).result(WAIT)
            assert service.stats().builds == builds == 1
            assert service.stats().failed == 1
            assert len(service.outcomes()) == 1
        inline = Session(video, counting_udf("car"), config=comp_cfg)
        assert report.to_json() == inline.execute(plan).to_json()

    def test_a_dead_build_worker_fails_only_its_batch(
            self, comp_cfg, tmp_path):
        # The same fuse lit from the start fires inside the Phase-1
        # build, which the process lane runs in a pool worker.
        video = WorkerKillingTraffic("fuse", 600, seed=101)
        video.arm(tmp_path / "fuse")
        warm = tmp_path / "warm"
        with QueryService(
                workers=2, use_processes=True, warm_dir=warm) as service:
            session = service.open_session(
                video, counting_udf("car"), config=comp_cfg)
            plan = session.query().topk(3).guarantee(0.9).plan()
            with pytest.raises(ServiceError) as caught:
                service.submit(plan, session=session).result(WAIT)
            assert isinstance(caught.value.__cause__, BrokenProcessPool)
            assert not (tmp_path / "fuse").exists()
            # Nothing was recorded, admitted or written for the build
            # that died, and its key is buildable again.
            assert service.outcomes() == []
            stats = service.stats()
            assert (stats.builds, stats.resident_entries,
                    stats.warm_writes) == (0, 0, 0)
            assert not warm.exists()
            assert not session.phase1_cached(plan.config)
            # The same plan again: a fresh pool builds and answers.
            report = service.submit(plan, session=session).result(WAIT)
            stats = service.stats()
            assert (stats.builds, stats.failed,
                    stats.warm_writes) == (1, 1, 1)
            # The dead worker is gone; a replacement answered.
            victim = int((tmp_path / "fuse.pid").read_text())
            alive = {c.pid for c in multiprocessing.active_children()}
            assert victim not in alive and alive
            assert len(service.outcomes()) == 1
        inline = Session(video, counting_udf("car"), config=comp_cfg)
        assert report.to_json() == inline.execute(plan).to_json()

    def test_a_dead_shard_worker_fails_the_corpus_query_retryably(
            self, comp_cfg, tmp_path):
        # ROADMAP 6(v): a pooled corpus query used to surface the raw
        # BrokenProcessPool; pool.map is the one translation now. The
        # fuse fires in the first frame read, the labelling of the
        # worker building shard-a's Phase 1 (a corpus confirm scores on
        # the scheduler thread, so no later worker reads a frame).
        from repro.corpus import VideoCorpus

        def videos(first=TrafficVideo):
            return [first("shard-a", 400, seed=101),
                    TrafficVideo("shard-b", 400, seed=102)]

        members = videos(WorkerKillingTraffic)
        members[0].arm(tmp_path / "fuse")
        with QueryService(workers=2, use_processes=True) as service:
            corpus = VideoCorpus.open(
                members, counting_udf("car"), config=comp_cfg)
            query = corpus.query().topk(4).guarantee(0.9)
            failed = service.submit(query)
            with pytest.raises(ServiceError) as caught:
                failed.result(WAIT)
            assert isinstance(caught.value.__cause__, BrokenProcessPool)
            assert not (tmp_path / "fuse").exists()
            # Nothing recorded for the failed query: no outcome, and no
            # Phase-2 ledger for a service-level merge to fold.
            assert service.outcomes() == []
            with pytest.raises(ServiceError):
                failed.outcome()
            served = service.submit(query)
            report = served.result(WAIT)
            assert service.stats().failed == 1
            assert service.outcomes() == [served.outcome()]
            assert served_cost(service, [served]).seconds(
                "oracle_confirm") == \
                served.outcome().phase2_cost.seconds("oracle_confirm") > 0
        inline = VideoCorpus.open(
            videos(), counting_udf("car"), config=comp_cfg)
        assert report.to_json() == inline.query().topk(4).guarantee(0.9) \
            .run().to_json()

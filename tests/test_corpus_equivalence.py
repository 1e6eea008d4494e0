"""Equivalence certification for the federated corpus engine.

The acceptance contract (mirroring ``test_parallel_equivalence.py`` /
``test_service_differential.py``): a
federated corpus execution — per-shard Phase 1, merged relation,
cross-shard budget allocation, per-shard oracles and ledgers — is
**byte-identical** (``QueryReport.to_json`` and the canonical merged
``CostModel``) to the equivalent plain single-video execution at the
same global budget:

* a corpus of one member reproduces a plain ``Session`` run over that
  member, report and ledger;
* an archive split into member clips, queried federated, reproduces
  the unsplit archive (the clips' ``ConcatVideo`` under the merged
  Phase-1 entry) queried whole — hypothesis draws the split points, K,
  guarantee and global budget, and a budget refusal is the reference's;
* a multi-member corpus reproduces a plain executor run over the
  ``ConcatVideo`` with the same merged Phase-1 entry;
* service submission returns the same bytes as inline execution on
  both lanes, and a corpus confirm scores in the query's own thread —
  no thread pool, no pool task;
* the execution door and streaming refreshes cannot change a byte.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import EverestConfig, QueryService, Session, VideoCorpus
from repro.api.executor import QueryExecutor
from repro.config import Phase1Config
from repro.errors import OracleBudgetExceededError, QueryError
from repro.oracle import counting_udf, merge_cost_models
from repro.video import TrafficVideo
from repro.video.views import ConcatVideo

#: Small-but-real engine configuration so each example stays fast.
CORPUS_CONFIG = EverestConfig(
    phase1=Phase1Config(
        sample_fraction=0.05,
        min_train_samples=96,
        holdout_samples=48,
        cmdn_grid=((3, 12),),
        epochs=15,
    ),
)


#: The shortest clip CORPUS_CONFIG can build Phase 1 on (its 96
#: training samples must leave a holdout frame).
MIN_SHARD_FRAMES = 100


def ledger_key(cost) -> dict:
    """A ledger's full observable state (units and seconds per key)."""
    return {
        key: (cost.units(key), cost.seconds(key))
        for key in sorted(
            set(cost.breakdown()) | {"oracle_confirm", "oracle_label",
                                     "decode", "cmdn_train"})
    }


@pytest.fixture(scope="module")
def udf():
    return counting_udf("car")


@pytest.fixture(scope="module")
def member_videos():
    return [
        TrafficVideo(f"corpus-cam{i}", 320, seed=40 + i) for i in range(3)
    ]


@pytest.fixture(scope="module")
def member_corpus(member_videos, udf):
    corpus = VideoCorpus.open(member_videos, udf, config=CORPUS_CONFIG)
    corpus.prepare()
    return corpus


# ----------------------------------------------------------------------
# (a) Corpus-of-one == plain Session, report and ledger.


def test_corpus_of_one_matches_plain_session(udf):
    video = TrafficVideo("corpus-solo", 420, seed=31)
    plain = Session(video, udf, config=CORPUS_CONFIG)
    plan = plain.query().topk(4).guarantee(0.9).plan()
    reference = QueryExecutor(plain).execute_detailed(plan)

    corpus = VideoCorpus.open([video], udf, config=CORPUS_CONFIG)
    outcome = corpus.query().topk(4).guarantee(0.9).run_detailed()

    assert outcome.report.to_json() == reference.report.to_json()
    reference_merged = merge_cost_models(
        [plain.phase1().cost_model, reference.phase2_cost])
    assert ledger_key(outcome.merged_cost()) == \
        ledger_key(reference_merged)
    # The one shard served every confirmation.
    assert outcome.allocation() == {
        "corpus-solo": outcome.phase2_cost.units("oracle_confirm")}


# ----------------------------------------------------------------------
# (b) Split-vs-whole, hypothesis over split points, K, thres, budget.


@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_split_corpus_matches_unsplit_archive(data, udf):
    # An archive cut at drawn split points into member clips: each
    # clip builds its own Phase 1, and the corpus answers as the whole
    # archive (the clips' concatenation) does under the merged entry.
    lengths = data.draw(st.lists(
        st.integers(MIN_SHARD_FRAMES, 3 * MIN_SHARD_FRAMES),
        min_size=2, max_size=4), label="shard lengths")
    k = data.draw(st.integers(2, 6), label="k")
    thres = data.draw(
        st.sampled_from([0.5, 0.8, 0.9, 0.95]), label="thres")
    budget = data.draw(
        st.one_of(st.none(), st.integers(5, 400)), label="budget")

    shards = [
        TrafficVideo(f"corpus-archive{i}", length, seed=29 + i)
        for i, length in enumerate(lengths)
    ]
    corpus = VideoCorpus.open(shards, udf, config=CORPUS_CONFIG)
    query = corpus.query().topk(k).guarantee(thres).oracle_budget(budget)
    state = corpus.merged_state()
    archive_session = Session(
        ConcatVideo(shards, name=corpus.name), udf, config=CORPUS_CONFIG)
    archive_session.adopt_phase1(state.entry, CORPUS_CONFIG)

    try:
        reference = QueryExecutor(archive_session).execute_detailed(
            query.plan())
    except OracleBudgetExceededError as error:
        # The federated run must fail identically: same type, same
        # budget, before any divergent state.
        with pytest.raises(OracleBudgetExceededError) as excinfo:
            query.run_detailed()
        assert excinfo.value.budget == error.budget
        return

    outcome = query.run_detailed()
    assert outcome.report.to_json() == reference.report.to_json()
    reference_merged = merge_cost_models(
        [state.entry.cost_model, reference.phase2_cost])
    assert ledger_key(outcome.merged_cost()) == \
        ledger_key(reference_merged)
    # Shard attribution is complete: per-shard confirms sum to the
    # global ledger's confirm units.
    assert sum(outcome.shard_confirms) == \
        outcome.phase2_cost.units("oracle_confirm")


# ----------------------------------------------------------------------
# Multi-member corpus == plain executor over the concat view.


def test_member_corpus_matches_concat_reference(
        member_corpus, member_videos, udf):
    query = member_corpus.query().topk(5).guarantee(0.9)
    outcome = query.run_detailed()

    state = member_corpus.merged_state()
    concat = ConcatVideo(member_videos, name=member_corpus.name)
    reference_session = Session(concat, udf, config=CORPUS_CONFIG)
    reference_session.adopt_phase1(state.entry, CORPUS_CONFIG)
    reference = QueryExecutor(reference_session).execute_detailed(
        query.plan())

    assert outcome.report.to_json() == reference.report.to_json()
    reference_merged = merge_cost_models(
        [state.entry.cost_model, reference.phase2_cost])
    assert ledger_key(outcome.merged_cost()) == \
        ledger_key(reference_merged)
    # Global ids resolve back into members, in-range and injectively.
    resolved = outcome.answer_members()
    assert len(resolved) == len(set(resolved)) == 5
    lengths = dict(zip(
        member_corpus.member_names,
        (len(v) for v in member_videos)))
    for name, local in resolved:
        assert 0 <= local < lengths[name]


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 6),
    thres=st.sampled_from([0.5, 0.8, 0.9, 0.95]),
)
def test_member_corpus_matches_concat_reference_swept(
        member_corpus, member_videos, udf, k, thres):
    query = member_corpus.query().topk(k).guarantee(thres)
    outcome = query.run_detailed()

    state = member_corpus.merged_state()
    reference_session = Session(
        ConcatVideo(member_videos, name=member_corpus.name),
        udf, config=CORPUS_CONFIG)
    reference_session.adopt_phase1(state.entry, CORPUS_CONFIG)
    reference = QueryExecutor(reference_session).execute_detailed(
        query.plan())
    assert outcome.report.to_json() == reference.report.to_json()


# ----------------------------------------------------------------------
# Execution knobs cannot change a byte.


def test_over_corpus_is_neutral(member_corpus):
    # A corpus query answers alike through either door: run() and the
    # corpus's own execute_detailed of the compiled plan.
    query = member_corpus.query().topk(4).guarantee(0.9)
    assert query.run().to_json() == \
        member_corpus.execute_detailed(query.plan()).report.to_json()


def test_pooled_prepare_matches_serial_build(member_videos, udf):
    """Shard Phase-1 builds a process-lane service fans out are
    bit-identical to the serial ``prepare``.

    The benchmark's speedup contract rests on this: entries are purely
    simulated, so where a shard's CMDN trains cannot leak into the
    merged relation, the report, or the ledgers.
    """
    serial = VideoCorpus.open(member_videos, udf, config=CORPUS_CONFIG)
    serial.prepare()
    pooled = VideoCorpus.open(member_videos, udf, config=CORPUS_CONFIG)
    query = lambda corpus: corpus.query().topk(4).guarantee(0.9)  # noqa: E731
    with QueryService(workers=2, use_processes=True) as service:
        served = service.submit(query(pooled)).result(240)
        # Every cold member built once, in the service's store.
        assert service.stats().builds == len(member_videos)

    serial_outcome = query(serial).run_detailed()
    pooled_outcome = query(pooled).run_detailed()
    assert served.to_json() == serial_outcome.report.to_json()
    assert pooled_outcome.report.to_json() == \
        serial_outcome.report.to_json()
    assert ledger_key(pooled_outcome.merged_cost()) == \
        ledger_key(serial_outcome.merged_cost())
    # A second prepare is a no-op: the entries are cached per member.
    assert pooled.prepare()[0] is pooled.prepare()[0]


def test_corpus_query_explain_names_shards(member_corpus):
    text = member_corpus.query().topk(4).explain()
    assert "shards" in text
    assert "corpus-cam0[0:320]" in text


def test_window_queries_are_rejected(member_corpus):
    member = member_corpus.members[0].session
    with pytest.raises(QueryError):
        member_corpus.query().windows(size=10)
    with pytest.raises(QueryError):
        plan = member.query().windows(size=10).topk(3).plan()
        member_corpus.execute_detailed(plan)


# ----------------------------------------------------------------------
# (c) Service submission equals inline execution on both lanes.


@pytest.mark.parametrize("use_processes", [False, True])
def test_service_submitted_corpus_matches_inline(
        member_videos, udf, use_processes):
    inline_corpus = VideoCorpus.open(
        member_videos, udf, config=CORPUS_CONFIG)
    inline = inline_corpus.query().topk(3).guarantee(0.9).run()

    corpus = VideoCorpus.open(member_videos, udf, config=CORPUS_CONFIG)
    try:
        with QueryService(
                workers=2, use_processes=use_processes) as service:
            futures = [
                service.submit(
                    corpus.query().topk(3).guarantee(0.9),
                    tenant=f"tenant-{i}")
                for i in range(2)
            ]
            reports = service.gather(futures, timeout=240)
            outcomes = [future.outcome() for future in futures]
    finally:
        for member in corpus.members:
            member.session.bind_service(None, None)

    for report in reports:
        assert report.to_json() == inline.to_json()
    assert len(outcomes) == 2
    for outcome in outcomes:
        assert outcome.report.to_json() == inline.to_json()


# ----------------------------------------------------------------------
# A corpus confirm scores where the query runs: no thread, no pool task.


def test_a_warm_service_corpus_query_creates_no_pool_task(
        member_videos, udf, monkeypatch):
    from repro.parallel.pool import PersistentPool

    def query(k, thres):
        return corpus.query().topk(k).guarantee(thres)

    corpus = VideoCorpus.open(member_videos, udf, config=CORPUS_CONFIG)
    tasks = []
    real = PersistentPool._run

    def spy(pool, *args, **kwargs):
        tasks.append(args)
        return real(pool, *args, **kwargs)

    try:
        with QueryService(workers=2, use_processes=True) as service:
            service.submit(query(2, 0.5)).result(240)  # Phase 1 warms here
            monkeypatch.setattr(PersistentPool, "_run", spy)
            outcome = service.submit(query(12, 0.99)).outcome(240)
            report, fresh = outcome.report, outcome.fresh_confirm_calls
    finally:
        for member in corpus.members:
            member.session.bind_service(None, None)
    assert fresh > 0 and tasks == []
    reference = VideoCorpus.open(member_videos, udf, config=CORPUS_CONFIG)
    assert report.to_json() == \
        reference.query().topk(12).guarantee(0.99).run().to_json()


def test_a_corpus_confirm_starts_no_thread(member_corpus, monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    started = []
    real = ThreadPoolExecutor.__init__

    def spy(executor, *args, **kwargs):
        started.append(executor)
        real(executor, *args, **kwargs)

    monkeypatch.setenv("REPRO_WORKERS", "4")
    monkeypatch.setattr(ThreadPoolExecutor, "__init__", spy)
    outcome = member_corpus.query().topk(12).guarantee(0.99).run_detailed()
    assert outcome.fresh_confirm_calls > 0
    assert sum(1 for calls in outcome.shard_confirms if calls) > 1
    assert started == []


# ----------------------------------------------------------------------
# Streaming corpora: an append refreshes the global subscription.


def test_streaming_member_append_refreshes_global_subscription(udf):
    source = TrafficVideo("corpus-live", 640, seed=53)
    stream = Session.open_stream(
        source, udf, initial_frames=400, config=CORPUS_CONFIG)
    closed = Session(
        TrafficVideo("corpus-fixed", 260, seed=54), udf,
        config=CORPUS_CONFIG)
    corpus = VideoCorpus([stream, closed])

    subscription = corpus.query().topk(3).guarantee(0.85).subscribe()
    first = subscription.latest
    assert first.num_frames == 400 + 260

    result = stream.append(120)
    # The member's append carried the refreshed federated report.
    assert subscription.latest is not first
    assert [r.to_json() for r in result.reports] == \
        [subscription.latest.to_json()]
    assert subscription.latest.num_frames == 520 + 260

    # The refreshed answer is exactly what a fresh federated run over
    # the advanced corpus produces.
    fresh = corpus.query().topk(3).guarantee(0.85).run()
    assert fresh.to_json() == subscription.latest.to_json()

    # And the live member's shard is the advanced prefix: the merged
    # state was invalidated by the member's new entry, not served stale.
    assert corpus.total_frames == 520 + 260
    assert subscription.detail.allocation().keys() == \
        {"corpus-live", "corpus-fixed"}


def test_a_tick_alone_re_merges():
    # A tick changes no length the corpus sees, only the member's entry
    # (its window moved): the merge is keyed by the entries it merged.
    stream = Session.open_stream(
        TrafficVideo("corpus-tick-b", 1500, seed=2), counting_udf("car"),
        initial_frames=600, window_seconds=20.0, config=EverestConfig.fast())
    closed = Session(
        TrafficVideo("corpus-tick-a", 900, seed=1), counting_udf("car"),
        config=EverestConfig.fast())
    corpus = VideoCorpus([closed, stream])
    before = corpus.merged_state()
    assert corpus.merged_state() is before
    stream.tick(100)
    after = corpus.merged_state()
    assert after is not before
    assert after.members[0] is before.members[0] is closed.phase1()
    assert after.members[1] is stream.phase1() is not before.members[1]
    assert len(after.entry.relation) < len(before.entry.relation)
    assert corpus.merged_state() is after


def test_subscribe_requires_a_streaming_member(member_corpus):
    with pytest.raises(QueryError):
        member_corpus.query().topk(3).subscribe()


def test_streaming_member_corpus_never_ships_to_the_pool(udf):
    """Process-lane submissions of a streaming-member corpus answer
    over the live watermark: the pool memoizes pickled member videos
    per worker, so a shipped stream would answer over a stale one (and
    crash confirming appended frames). A corpus confirm scores on the
    scheduler thread, and the stream's own lane is inline."""
    source = TrafficVideo("corpus-pool-live", 560, seed=57)
    stream = Session.open_stream(
        source, udf, initial_frames=360, config=CORPUS_CONFIG)
    closed = Session(
        TrafficVideo("corpus-pool-fixed", 240, seed=58), udf,
        config=CORPUS_CONFIG)
    corpus = VideoCorpus([stream, closed])
    query = corpus.query().topk(3).guarantee(0.85)

    try:
        with QueryService(workers=2, use_processes=True) as service:
            assert service._lane(stream) == "inline"

            first = service.submit(query).result(240)
            stream.append(150)
            second = service.submit(query).result(240)
    finally:
        closed.bind_service(None, None)

    assert first.num_frames == 360 + 240
    # The post-append submission answers over the live watermark —
    # byte-identical to a fresh inline federated run.
    assert second.num_frames == 510 + 240
    assert second.to_json() == query.run().to_json()

"""Failure injection for the federated corpus engine.

Mirrors the ``test_parallel_cost_ledger.py`` discipline: failures must
be *deterministic* (same type, same payload, same canonical position).
A corpus confirms through the plain
:class:`~repro.oracle.cache.CachingOracle` over the members'
:class:`~repro.video.views.ConcatVideo`, its cache the members' own
score caches (:class:`~repro.corpus.federated.MemberScoreCaches`):

* A global budget trips with the exact error (type and budget) the
  plain concatenated execution raises.
* A crashing shard re-raises in canonical member order: when several
  shards fail in one batch, the lowest-indexed member's error surfaces,
  and a batch that fails part-way stores nothing in any member cache.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import EverestConfig, QueryService, Session, VideoCorpus
from repro.config import Phase1Config
from repro.corpus.federated import MemberScoreCaches
from repro.errors import OracleBudgetExceededError, OracleError
from repro.oracle import CostModel, counting_udf
from repro.oracle.cache import CachingOracle, ScoreCache
from repro.video import TrafficVideo
from repro.video.views import ConcatVideo

FAST = EverestConfig(
    phase1=Phase1Config(
        sample_fraction=0.05,
        min_train_samples=96,
        holdout_samples=48,
        cmdn_grid=((3, 12),),
        epochs=15,
    ),
)
WAIT = 60.0


class ExplodingVideo(TrafficVideo):
    """A member whose oracle reads always crash (picklable)."""

    def frame(self, index):
        raise RuntimeError(f"shard {self.name} exploded")


class FuseVideo(TrafficVideo):
    """A member that reads normally until ``lit``, then crashes."""

    lit = False

    def frame(self, index):
        if self.lit:
            raise RuntimeError(f"shard {self.name} exploded")
        return super().frame(index)


@pytest.fixture(scope="module")
def udf():
    return counting_udf("car")


@pytest.fixture(scope="module")
def corpus(udf):
    videos = [
        TrafficVideo(f"fail-cam{i}", 300, seed=60 + i) for i in range(3)
    ]
    built = VideoCorpus.open(videos, udf, config=FAST)
    built.prepare()
    return built


def make_oracle(udf, videos, *, caches=None):
    """A corpus's confirming oracle over plain member videos: the
    plain caching oracle over their concatenation, confirming through
    the members' own score caches."""
    concat = ConcatVideo(videos, name="+".join(v.name for v in videos))
    view = MemberScoreCaches(
        concat, caches if caches is not None
        else [ScoreCache() for _ in videos])
    return concat, CachingOracle(
        udf, CostModel(), cache=view, cost_key="oracle_confirm")


def test_global_budget_matches_concatenated_reference(corpus, udf):
    """The federated global budget trips exactly like the plain run."""
    from repro.api.executor import QueryExecutor

    query = corpus.query().topk(3).guarantee(0.999).oracle_budget(6)
    state = corpus.merged_state()
    from repro.video.views import ConcatVideo

    reference_session = Session(
        ConcatVideo([m.video for m in corpus.members], name=corpus.name),
        udf, config=FAST)
    reference_session.adopt_phase1(state.entry, FAST)
    with pytest.raises(OracleBudgetExceededError) as reference:
        QueryExecutor(reference_session).execute_detailed(query.plan())
    with pytest.raises(OracleBudgetExceededError) as federated:
        query.run_detailed()
    assert federated.value.budget == reference.value.budget == 6
    assert type(federated.value) is type(reference.value)


# ----------------------------------------------------------------------
# Construction-time validation: malformed corpora fail eagerly.


class TestCorpusValidation:
    def test_empty_corpus_rejected(self):
        from repro.errors import CorpusError

        with pytest.raises(CorpusError):
            VideoCorpus([])

    def test_mismatched_udfs_rejected(self, udf):
        from repro.errors import CorpusError
        from repro.oracle.sentiment import sentiment_udf

        a = Session(TrafficVideo("val-a", 60, seed=1), udf, config=FAST)
        b = Session(
            TrafficVideo("val-b", 60, seed=2), sentiment_udf(),
            config=FAST)
        with pytest.raises(CorpusError):
            VideoCorpus([a, b])

    def test_duplicate_member_names_rejected(self, udf):
        from repro.errors import CorpusError

        video = TrafficVideo("val-dup", 60, seed=3)
        sessions = [
            Session(video, udf, config=FAST),
            Session(TrafficVideo("val-dup", 60, seed=4), udf,
                    config=FAST),
        ]
        with pytest.raises(CorpusError):
            VideoCorpus(sessions)

    def test_locate_and_shard_arithmetic(self, corpus):
        from repro.errors import FrameIndexError

        assert corpus.total_frames == 900
        assert list(corpus.offsets()) == [0, 300, 600]
        assert corpus.video.locate(0) == (0, 0)
        assert corpus.video.locate(299) == (0, 299)
        assert corpus.video.locate(300) == (1, 0)
        assert corpus.video.locate(899) == (2, 299)
        assert corpus.member_names[2] == "fail-cam2"
        with pytest.raises(FrameIndexError):
            corpus.video.locate(900)
        with pytest.raises(FrameIndexError):
            corpus.video.locate(-1)

    def test_scan_seconds_covers_the_fleet(self, corpus):
        costs = corpus.resolved_unit_costs()
        per_frame = costs["oracle_infer"] + costs["decode"]
        assert corpus.scan_seconds() == pytest.approx(900 * per_frame)

    def test_with_config_clause_validates(self, corpus):
        with pytest.raises(ValueError):
            corpus.query().with_config("not-a-config")


# ----------------------------------------------------------------------
# Shard errors: canonical order, nothing stored from a failed batch.


def test_inline_lane_reraises_in_canonical_shard_order(udf):
    # A confirm batch is read in the calling thread, one member after
    # another in canonical order.
    videos = [
        TrafficVideo("batch-ok", 100, seed=80),
        ExplodingVideo("batch-boom-a", 100, seed=81),
        ExplodingVideo("batch-boom-b", 100, seed=82),
    ]
    concat, oracle = make_oracle(udf, videos)
    # One batch spanning all three shards, listed out of member order:
    # both exploding members would fail; the first member's error is
    # the one that surfaces.
    with pytest.raises(RuntimeError) as excinfo:
        oracle.score(concat, [205, 5, 105])
    assert "batch-boom-a" in str(excinfo.value)

    # The healthy shard scores exactly what its own video scores.
    np.testing.assert_array_equal(
        oracle.score(concat, [5, 6, 7]), udf(videos[0].frames([5, 6, 7])))


def test_pool_lane_reraises_in_canonical_shard_order(udf):
    # A service with a process pool still confirms a corpus query on
    # its scheduler thread: a crashing shard surfaces exactly the error
    # the plain inline query raises.
    videos = [
        TrafficVideo("pool-ok", 300, seed=75),
        FuseVideo("pool-boom-a", 300, seed=76),
        FuseVideo("pool-boom-b", 300, seed=77),
    ]
    corpus = VideoCorpus.open(videos, udf, config=FAST)
    corpus.prepare()
    for video in videos[1:]:
        video.lit = True  # builds are done; every confirm read crashes
    query = corpus.query().topk(3).guarantee(0.999)
    with pytest.raises(RuntimeError) as inline:
        query.run()
    with QueryService(workers=2, use_processes=True) as service:
        with pytest.raises(RuntimeError) as served:
            service.submit(query).result(WAIT)
    assert "pool-boom-a exploded" in str(inline.value)
    assert str(served.value) == str(inline.value)


def test_a_later_members_non_finite_score_stores_nothing(udf):
    def nan_at_local_frame_50(frames):
        scores = np.array(udf.score_frames(frames), dtype=np.float64)
        scores[[frame.index == 50 for frame in frames]] = np.nan
        return scores

    scoring = dataclasses.replace(udf, score_frames=nan_at_local_frame_50)
    videos = [
        TrafficVideo(f"finite-{i}", 100, seed=85 + i) for i in range(3)]
    caches = [ScoreCache() for _ in videos]
    concat, oracle = make_oracle(scoring, videos, caches=caches)
    oracle.score(concat, [1, 101])  # a healthy batch fills two caches

    def member_caches():
        return [dict(cache.since(0)[0]) for cache in caches]

    before = member_caches()
    assert [len(scores) for scores in before] == [1, 1, 0]
    assert before[1] == {1: float(udf(videos[1].frames([1]))[0])}
    # The two earlier members' misses are read with the last member's
    # NaN; none of them is stored in its member's cache.
    with pytest.raises(OracleError, match="non-finite"):
        oracle.score(concat, [2, 102, 250])
    assert member_caches() == before
    assert oracle.fresh_calls == 2


def test_pooled_prepare_reraises_in_canonical_member_order(udf):
    videos = [
        ExplodingVideo("prep-boom-a", 120, seed=90),
        ExplodingVideo("prep-boom-b", 120, seed=91),
    ]
    corpus = VideoCorpus.open(videos, udf, config=FAST)
    # Both cold members build side by side in pool workers; the
    # earliest member's failure is the one that surfaces.
    with QueryService(workers=2, use_processes=True) as service:
        with pytest.raises(RuntimeError) as excinfo:
            service.submit(corpus.query().topk(3)).result(WAIT)
    assert "prep-boom-a" in str(excinfo.value)

"""Tests for the declarative query API (sessions, builder, plans).

Covers the acceptance criteria of the API redesign: a sweep on one
session runs Phase 1 exactly once, builder clauses validate eagerly,
window-query edges behave, and reports round-trip through JSON.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from repro import QueryService, VideoCorpus
from repro.api import (
    Query,
    QueryPlan,
    Session,
    phase1_key,
    resolve_corpus,
    resolve_udf,
    resolve_video,
)
from repro.api.registry import resolve_query_spec
from repro.config import EverestConfig, Phase2Config
from repro.core.result import PhaseBreakdown, QueryReport
from repro.core.windows import num_windows
from repro.errors import (
    ConfigurationError,
    OracleBudgetExceededError,
    QueryError,
)
from repro.oracle import counting_udf
from repro.video import TrafficVideo


def counting_udf_with_counter(label="car"):
    """A counting UDF that also counts how many frames it scored."""
    inner = counting_udf(label)
    calls = {"frames": 0}

    def score_frames(frames):
        calls["frames"] += len(frames)
        return inner.score_frames(frames)

    return dataclasses.replace(
        inner, score_frames=score_frames, exact_scores_fn=None), calls


@pytest.fixture(scope="module")
def session(traffic_video, fast_config):
    """A shared session so most tests reuse one Phase 1 build."""
    return Session(traffic_video, counting_udf("car"), config=fast_config)


class TestBuilderValidation:
    def test_clauses_validate_eagerly(self, session):
        query = session.query()
        with pytest.raises(QueryError):
            query.topk(0)
        with pytest.raises(QueryError):
            query.topk(-3)
        with pytest.raises(QueryError):
            query.guarantee(0.0)
        with pytest.raises(QueryError):
            query.guarantee(1.5)
        with pytest.raises(QueryError):
            query.windows(size=0)
        with pytest.raises(QueryError):
            query.windows(size=30, step=0.0)
        with pytest.raises(QueryError):
            query.windows(size=30, step=-1.0)
        with pytest.raises(ConfigurationError):
            query.oracle_budget(0)
        with pytest.raises(ConfigurationError):
            query.with_config("not a config")

    def test_builder_is_immutable(self, session):
        base = session.query().guarantee(0.95)
        forked = base.topk(5)
        windowed = base.windows(size=30)
        assert base.plan().k == 50  # default untouched by the forks
        assert forked.plan().k == 5
        assert base.plan().mode == "frames"
        assert windowed.plan().mode == "windows"
        assert forked.plan().thres == windowed.plan().thres == 0.95

    def test_plan_compiles_without_running_phase1(
            self, traffic_video, fast_config):
        fresh = Session(traffic_video, counting_udf("car"),
                        config=fast_config)
        plan = fresh.query().windows(size=30).topk(10).plan()
        text = fresh.query().windows(size=30).topk(10).explain()
        assert isinstance(plan, QueryPlan)
        assert fresh.phase1_runs == 0
        assert "tumbling-windows(size=30" in text
        assert traffic_video.name in text
        assert "top-10" in text

    def test_plan_fields(self, session, traffic_video):
        plan = (session.query()
                .windows(size=50).topk(7).guarantee(0.8)
                .oracle_budget(123).plan())
        assert plan.video_name == traffic_video.name
        assert plan.k == 7 and plan.thres == 0.8
        assert plan.window_size == 50
        # Default step: UDF step / 4 for a counting UDF.
        assert plan.window_step == pytest.approx(0.25)
        assert plan.oracle_budget == 123
        assert plan.num_tuples == num_windows(len(traffic_video), 50)

    def test_numpy_integers_accepted(self, session):
        # k and window size often come from np.arange / array indexing.
        plan = (session.query()
                .topk(np.int64(5)).windows(size=np.int64(30)).plan())
        assert plan.k == 5 and isinstance(plan.k, int)
        assert plan.window_size == 30 and isinstance(plan.window_size, int)

    def test_hand_built_plan_validates(self, session, fast_config):
        with pytest.raises(ValueError):
            QueryPlan(
                video_name="x", udf_name="y", num_frames=10,
                mode="nonsense", k=1, thres=0.9, window_size=None,
                window_step=None, oracle_budget=None,
                config=fast_config, unit_costs={})
        with pytest.raises(ValueError):
            QueryPlan(
                video_name="x", udf_name="y", num_frames=10,
                mode="windows", k=1, thres=0.9, window_size=10,
                window_step=None, oracle_budget=None,
                config=fast_config, unit_costs={})


class TestSessionQueries:
    def test_sweep_runs_phase1_once(self, traffic_video, fast_config):
        scoring, calls = counting_udf_with_counter()
        fresh = Session(traffic_video, scoring, config=fast_config)
        first = fresh.query().topk(5).guarantee(0.9).run()
        second = fresh.query().windows(size=30).topk(5).guarantee(0.9).run()
        assert fresh.phase1_runs == 1
        # Oracle label calls were charged exactly once: the UDF scored
        # the Phase 1 sample once plus each frame either query confirmed
        # — once, through the session's score cache.
        phase1_labels = fresh.phase1().oracle_calls
        charged = first.oracle_calls + second.oracle_calls - phase1_labels
        assert calls["frames"] == \
            phase1_labels + len(fresh.shared_score_cache) <= charged
        # Both reports still account the identical full Phase 1 cost.
        assert first.breakdown.label_sample == pytest.approx(
            second.breakdown.label_sample)

    def test_phase2_override_hits_phase1_cache(
            self, traffic_video, fast_config):
        fresh = Session(traffic_video, counting_udf("car"),
                        config=fast_config)
        fresh.query().topk(5).guarantee(0.9).run()
        override = dataclasses.replace(
            fast_config, phase2=Phase2Config(batch_size=4))
        assert phase1_key(override) == phase1_key(fast_config)
        fresh.query().with_config(override).topk(5).guarantee(0.9).run()
        assert fresh.phase1_runs == 1

    def test_oracle_budget_clause_enforced(self, traffic_video, fast_config):
        fresh = Session(traffic_video, counting_udf("car"),
                        config=fast_config)
        with pytest.raises(OracleBudgetExceededError):
            (fresh.query().topk(20).guarantee(0.99)
             .oracle_budget(3).run())

    def test_session_open_with_strings(self, fast_config):
        opened = Session.open(
            "traffic", "count[person]",
            config=fast_config, num_frames=600, seed=9)
        assert opened.video.name == "traffic"
        assert opened.scoring.name == "count[person]"

    def test_executor_rejects_foreign_plan(
            self, session, traffic_video, fast_config):
        other = Session(
            resolve_video("traffic", num_frames=400, seed=2),
            counting_udf("car"), config=fast_config)
        foreign = other.query().topk(3).plan()
        with pytest.raises(QueryError):
            session.execute(foreign)
        # Same video *name* but a different video is still foreign.
        from repro.video import TrafficVideo
        impostor = Session(
            TrafficVideo(traffic_video.name, 400, seed=2),
            counting_udf("car"), config=fast_config)
        with pytest.raises(QueryError):
            session.execute(impostor.query().topk(3).plan())


class TestWindowEdges:
    def test_window_size_one_delegates_to_frame_path(self, session):
        plan = session.query().windows(size=1).topk(5).plan()
        assert plan.mode == "frames"
        assert plan.window_size is None
        report = session.query().windows(size=1).topk(5).guarantee(0.9).run()
        assert report.window_size is None

    def test_invalid_window_step_via_engine_facade(
            self, traffic_video, fast_config):
        fresh = Session(
            traffic_video, counting_udf("car"), config=fast_config)
        with pytest.raises(QueryError):
            fresh.query().windows(size=30, step=0.0)
        with pytest.raises(QueryError):
            fresh.query().windows(size=-2)

    def test_window_ids_in_range(self, session, traffic_video):
        report = (session.query()
                  .windows(size=40).topk(5).guarantee(0.9).run())
        count = num_windows(len(traffic_video), 40)
        assert all(0 <= w < count for w in report.answer_ids)


class TestRegistry:
    def test_resolve_udf_specs(self):
        assert resolve_udf("count").name == "count[car]"
        assert resolve_udf("count[person]").name == "count[person]"
        assert resolve_udf("tailgating").name == "tailgating"
        assert resolve_udf("tailgating").quantization_step is not None
        assert resolve_udf("sentiment").name == "happiness"

    @pytest.mark.parametrize("spec", [
        "sentiment[0]", "sentiment[nan]", "sentiment[-1]", "sentiment[inf]"])
    def test_unusable_udf_step_is_refused(self, spec):
        """A step that is not finite and > 0 cannot make a grid: the
        UDF is refused before any session could label a frame."""
        with pytest.raises(ConfigurationError, match="quantization_step"):
            resolve_udf(spec)

    def test_unknown_names_raise(self):
        with pytest.raises(ConfigurationError):
            resolve_udf("no-such-udf")
        with pytest.raises(ConfigurationError):
            resolve_udf("count[car")  # malformed spec
        with pytest.raises(ConfigurationError):
            resolve_video("no-such-video")

    def test_register_video_rejects_dataset_shadowing(self):
        """Table 7 names resolve first, so a family row named like a
        dataset would never be reached: the two tables share no name."""
        from repro.api.registry import VIDEOS, list_videos
        from repro.video.datasets import DATASETS
        assert VIDEOS and not set(VIDEOS) & set(DATASETS)
        assert set(list_videos()) == set(VIDEOS) | set(DATASETS)

    def test_open_session_with_dataset_name(self, fast_config):
        opened = Session.open(
            "dashcam-california", "tailgating",
            config=fast_config, min_frames=500)
        assert opened.video.name == "dashcam-california"
        assert opened.query().topk(3).plan().udf_name == \
            opened.scoring.name


def _with_service(open_from):
    def door(video, **kwargs):
        with QueryService(workers=1, use_processes=False) as service:
            return open_from(service, video, **kwargs)
    return door


#: Every call that forwards video keywords, fed ``video`` (an object or
#: the registry name ``"traffic"``) plus the caller's keywords.
DOORS = {
    "Session.open": lambda video, **kw: Session.open(
        video, "count[car]", **kw),
    "Session.open_stream": lambda video, **kw: Session.open_stream(
        video, "count[car]", initial_frames=200, **kw),
    "QueryService.open_session": _with_service(
        lambda service, video, **kw: service.open_session(
            video, "count[car]", **kw)),
    "QueryService.open_stream": _with_service(
        lambda service, video, **kw: service.open_stream(
            video, "count[car]", initial_frames=200, video_kwargs=kw)),
    "VideoCorpus.open": lambda video, **kw: VideoCorpus.open(
        [video, video if isinstance(video, str)
         else TrafficVideo("y", 300, seed=2)], "count[car]", **kw),
    "resolve_query_spec": lambda name, **kw: resolve_query_spec(
        f"count[car]/{name}", **kw),
    "resolve_corpus": lambda name, **kw: resolve_corpus(
        f"count[car]@{{{name},vlog}}", **kw),
}
#: Wire specs only name videos.
NAME_ONLY = ("resolve_query_spec", "resolve_corpus")


@pytest.mark.parametrize("door, kind", [
    (door, kind) for door in DOORS for kind in ("object", "name")
    if kind == "name" or door not in NAME_ONLY])
def test_a_stray_video_keyword_names_the_call_made(door, kind):
    """A keyword no video builder takes is refused before anything is
    built, naming the call the user made — beside a video object too."""
    if kind == "object":
        expected, message = TypeError, "got unexpected keyword argument"
        video = TrafficVideo("x", 300, seed=1)
    else:
        expected, message = ConfigurationError, "got keyword argument"
        video = "traffic"
    with pytest.raises(expected, match=rf"^{re.escape(door)}\(\) "
                       rf"{message}\(s\) bogus"):
        DOORS[door](video, bogus=1)


class TestReportJson:
    def test_round_trip_with_numpy_values(self):
        report = QueryReport(
            video_name="rt", udf_name="count[car]",
            k=np.int64(3), thres=np.float64(0.9),
            window_size=np.int64(30), num_frames=np.int64(900),
            answer_ids=[np.int64(4), np.int64(1), np.int64(7)],
            answer_scores=list(np.array([5.0, 4.0, 3.5])),
            confidence=np.float64(0.93),
            iterations=np.int64(6), cleaned=np.int64(48),
            num_tuples=np.int64(30), num_retained=np.int64(700),
            oracle_calls=np.int64(120),
            breakdown=PhaseBreakdown(
                label_sample=1.0, cmdn_training=2.0, populate_d0=3.0,
                select_candidate=0.5, confirm_oracle=4.0),
            scan_seconds=np.float64(1000.0),
            proxy_hyperparameters=(np.int64(3), np.int64(16)),
            holdout_nll=np.float64(1.25),
            confidence_trace=list(np.array([0.2, 0.5, 0.93])),
            selection_examine_fraction=np.float64(0.1),
        )
        text = report.to_json()
        back = QueryReport.from_json(text)
        assert back.answer_ids == [4, 1, 7]
        assert back.answer_scores == [5.0, 4.0, 3.5]
        assert back.proxy_hyperparameters == (3, 16)
        assert back.breakdown == report.breakdown
        assert back.confidence == pytest.approx(0.93)
        assert back.window_size == 30
        # A second round trip is exact: everything is builtin types now.
        assert QueryReport.from_json(back.to_json()) == back

    def test_round_trip_real_report(self, session):
        report = session.query().topk(5).guarantee(0.9).run()
        back = QueryReport.from_json(report.to_json())
        assert back.answer_ids == [int(i) for i in report.answer_ids]
        assert back.confidence == pytest.approx(report.confidence)
        assert back.summary() == report.summary()
        assert back.breakdown.total_seconds == pytest.approx(
            report.breakdown.total_seconds)

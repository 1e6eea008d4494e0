"""The oracle is the boundary for non-finite scores.

A UDF that returns ``NaN`` or ``inf`` is a broken oracle, and nothing
downstream can price that: the quantization grid has no level for it,
the Top-K order no place, the proxy no gradient. Before this was
refused at the boundary a confirmed ``NaN`` died as ``IndexError:
index -9223372036854775808`` in ``mark_certain_many`` — after the joint
CDF had dropped the batch and after the shared score cache had stored
the ``NaN`` for every later query to read; ``+inf`` was *returned* as a
Top-K answer with confidence 1.0; a ``NaN`` label trained the proxy and
failed the build at its very end with ``each x-tuple pmf must sum to
1``. Every test here fails at the parent commit.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro import EverestConfig, QueryService, Session
from repro.api import registry
from repro.api.registry import resolve_query_spec
from repro.config import Phase2Config
from repro.core.cleaner import TopKCleaner
from repro.errors import OracleError
from repro.gateway import Gateway, GatewayConfig
from repro.oracle import CostModel, Oracle, counting_udf
from repro.oracle.base import ScoringFunction
from repro.oracle.cache import CachingOracle, ScoreCache
from repro.video import TrafficVideo

WAIT = 60.0
FAST = EverestConfig.fast()
VIDEO_KWARGS = {"num_frames": 500, "seed": 5}
BAD = [float("nan"), float("inf"), float("-inf")]


@dataclass(frozen=True)
class Poisoned:
    """The counting UDF, except ``frames`` score ``value``."""

    frames: frozenset
    value: float

    def __call__(self, frames):
        scores = counting_udf("car")(frames)
        for row, frame in enumerate(frames):
            if frame.index in self.frames:
                scores[row] = self.value
        return scores


def poisoned_udf(frames, value):
    return ScoringFunction(
        name="count[car]", score_frames=Poisoned(frozenset(frames), value))


def _video(name="poison", frames=700, seed=91):
    return TrafficVideo(name, frames, seed=seed)


def _query(session, k=5):
    return session.query().topk(k).guarantee(0.9)


@pytest.fixture(scope="module")
def healthy():
    """What a healthy run labels and confirms: ``(labels, confirms)``."""
    session = Session(_video(), counting_udf("car"), config=FAST)
    _query(session).run()
    labels = sorted(session.phase1().known_scores)
    confirms = [frame for frame, _ in
                session.shared_score_cache.since(0)[0]]
    assert confirms and not set(confirms) & set(labels)
    return labels, confirms


# ----------------------------------------------------------------------
# At the oracle.


@pytest.mark.parametrize("value", BAD)
def test_oracles_refuse_non_finite_scores_before_caching(value):
    video = _video()
    scoring = poisoned_udf({7, 9}, value)
    with pytest.raises(OracleError, match=r"count\[car\].*\[7, 9\]"):
        Oracle(scoring, CostModel()).score(video, [3, 7, 8, 9])
    cache = ScoreCache({3: 2.0})
    oracle = CachingOracle(scoring, CostModel(), cache=cache)
    with pytest.raises(OracleError, match=r"\[7, 9\]"):
        oracle.score(video, [3, 7, 8, 9])
    # Not even the batch's healthy frames were taken in.
    assert dict(cache.since(0)[0]) == {3: 2.0}
    assert oracle.fresh_scores == {} and oracle.fresh_calls == 0
    assert oracle.score(video, [3, 8]).tolist() == [2.0, float(
        counting_udf("car")(video.frames([8]))[0])]


@pytest.mark.parametrize("value", BAD)
def test_a_confirmed_non_finite_score_fails_the_query(healthy, value):
    _, confirms = healthy
    session = Session(
        _video(), poisoned_udf(confirms[:1], value), config=FAST)
    with pytest.raises(OracleError, match=str(confirms[0])):
        _query(session).run()
    # The session's own cache kept what came before, never the bad one.
    cache = session.shared_score_cache
    assert confirms[0] not in cache
    assert np.isfinite([score for _, score in cache.since(0)[0]]).all()


@pytest.mark.parametrize("value", BAD)
def test_a_non_finite_label_fails_the_build_at_the_label(healthy, value):
    labels, _ = healthy
    scoring = poisoned_udf(labels[3:4], value)
    with pytest.raises(OracleError, match=str(labels[3])):
        Session(_video(), scoring, config=FAST).phase1()
    # A stream labels through a caching oracle: same refusal.
    with pytest.raises(OracleError):
        Session.open_stream(
            _video(frames=900), poisoned_udf(range(900), value),
            initial_frames=700, config=FAST).phase1()


# ----------------------------------------------------------------------
# In the cleaning loop: checked before anything is written.


@pytest.mark.parametrize("value", BAD)
def test_a_refused_batch_leaves_state_and_relation_consistent(value):
    session = Session(_video(), counting_udf("car"), config=FAST)
    truth = session.video.truth_array()
    relation = session.phase1().relation
    poison = {"armed": True}

    def clean_fn(ids):
        scores = truth[list(ids)]
        if poison["armed"]:
            scores[-1] = value
        return scores

    cleaner = TopKCleaner(relation, clean_fn, Phase2Config())
    certain_before = relation.certain.copy()
    with pytest.raises(OracleError, match="non-finite"):
        cleaner.run(5, 0.9)
    # Nothing moved: not the joint CDF, not the relation, not the count.
    assert cleaner.cleaned == 0
    assert np.array_equal(relation.certain, certain_before)
    assert np.array_equal(cleaner.state.uncertain_mask, ~relation.certain)
    assert cleaner.state.num_uncertain == relation.num_uncertain

    # ...so the same cleaner, its oracle repaired, answers as a clean
    # run does.
    poison["armed"] = False
    outcome = cleaner.run(5, 0.9)
    reference = TopKCleaner(
        session.phase1().relation,
        lambda ids: truth[list(ids)], Phase2Config()).run(5, 0.9)
    assert outcome.answer_ids == reference.answer_ids
    assert outcome.answer_scores == reference.answer_scores
    assert outcome.confidence == reference.confidence
    assert outcome.cleaned == reference.cleaned


# ----------------------------------------------------------------------
# Through the service and the gateway, as every other OracleError.


def test_the_error_reaches_a_service_future(healthy):
    _, confirms = healthy
    with QueryService(workers=2, use_processes=False) as service:
        sick = service.open_session(
            _video(), poisoned_udf(confirms[:1], float("nan")),
            config=FAST)
        future = service.submit(_query(sick))
        with pytest.raises(OracleError, match=str(confirms[0])):
            future.result(timeout=WAIT)
        # The service-scope cache every later query reads stayed clean.
        cached = dict(sick.shared_score_cache.since(0)[0])
        assert confirms[0] not in cached
        assert np.isfinite(list(cached.values())).all()
        # ...and the service goes on answering.
        well = service.open_session(
            _video("well", seed=92), counting_udf("car"), config=FAST)
        report = service.submit(_query(well)).result(timeout=WAIT)
        assert report.confidence >= 0.9


def _poll(gateway, result_id):
    deadline = time.monotonic() + WAIT
    while time.monotonic() < deadline:
        status, body = gateway.handle("GET", f"/result/{result_id}")
        assert status == 200
        if body["status"] != "pending":
            return body
        time.sleep(0.02)
    raise AssertionError(f"result {result_id} never finished")


def test_the_error_reaches_the_wire(monkeypatch):
    """``poisoned[<frame>]`` scores that frame NaN; ``poisoned`` alone
    scores every frame NaN."""
    def factory(arg=None):
        frames = range(10_000) if arg is None else [int(arg)]
        return poisoned_udf(frames, float("nan"))

    monkeypatch.setitem(registry.UDFS, "poisoned", factory)
    reference = resolve_query_spec(
        "count[car]/traffic", config=FAST, **VIDEO_KWARGS)
    reference.query().topk(4).guarantee(0.9).run()
    confirmed = reference.shared_score_cache.since(0)[0][0][0]

    config = GatewayConfig(video_kwargs=dict(VIDEO_KWARGS))
    with Gateway(config=config, workers=1, use_processes=False) as gateway:
        # A poll entry fails as any failed query does.
        status, body = gateway.handle("POST", "/query", {
            "spec": f"poisoned[{confirmed}]/traffic", "k": 4,
            "guarantee": 0.9})
        assert status == 202
        done = _poll(gateway, body["id"])
        assert done["status"] == "failed"
        assert done["error"] == "OracleError"
        assert str(confirmed) in done["message"]
        # A synchronous route answers 500 with the same payload shape.
        status, body = gateway.handle("POST", "/stream", {
            "stream": "sick", "spec": "poisoned/traffic",
            "initial_frames": 300})
        assert status == 500
        assert body["error"] == "OracleError"
        assert "non-finite" in body["message"]
        # The gateway is still serving.
        status, body = gateway.handle("POST", "/query", {
            "spec": "count[car]/traffic", "k": 4, "guarantee": 0.9})
        assert status == 202
        assert _poll(gateway, body["id"])["status"] == "done"

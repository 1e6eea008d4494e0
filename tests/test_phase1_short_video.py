"""A video too short to leave a holdout is refused before labelling.

Under the default ``EverestConfig()`` the training sample is
``min(500, n)`` frames, so a bootstrap over ``n <= 500`` frames used to
take every frame for training, buy ``n`` oracle labels and then die in
NumPy on the empty holdout batch. ``Phase1Maintainer.bootstrap`` now
refuses it up front with a :class:`~repro.errors.ConfigurationError`
(DESIGN.md §3) — through every door a build can come in by. Splits that
leave even one holdout frame are untouched.
"""

from __future__ import annotations

import pytest

from repro import EverestConfig, QueryService, Session
from repro.core.phase1 import Phase1Maintainer
from repro.errors import ConfigurationError
from repro.gateway import Gateway, GatewayConfig
from repro.oracle import Oracle, counting_udf
from repro.video import TrafficVideo

DEFAULT = EverestConfig()
FAST = EverestConfig.fast()
WAIT = 60.0


def _video(frames: int = 300) -> TrafficVideo:
    return TrafficVideo("short", frames, seed=41)


def _query(session):
    return session.query().topk(3).guarantee(0.9)


@pytest.mark.parametrize("frames", [1, 300, 500])
def test_bootstrap_refuses_before_buying_a_label(frames):
    oracle = Oracle(counting_udf("car"), cost_key="oracle_label")
    maintainer = Phase1Maintainer(_video(frames), oracle, DEFAULT)
    with pytest.raises(ConfigurationError) as refusal:
        maintainer.bootstrap()
    # Frames, training sample and holdout are all named.
    holdout = DEFAULT.phase1.holdout_sample_size(frames)
    assert f"{frames} frames" in str(refusal.value)
    assert f"{frames} training samples" in str(refusal.value)
    assert f"{holdout}-frame holdout" in str(refusal.value)
    assert oracle.calls == 0 and not maintainer.known_scores
    assert oracle.cost_model.total_seconds() == 0.0


def test_a_one_frame_holdout_still_builds():
    # 501 frames: 500 train, 1 holdout — succeeded before, and its
    # bytes are pinned elsewhere; the refusal starts strictly below.
    entry = Session(_video(501), counting_udf("car"), config=DEFAULT).phase1()
    assert entry.oracle_calls == 501


def test_a_session_refuses_and_then_answers_under_a_workable_config():
    session = Session(_video(), counting_udf("car"), config=DEFAULT)
    for _ in range(2):  # nothing half-built is cached
        with pytest.raises(ConfigurationError):
            session.phase1()
    assert session.phase1_runs == 0 and not session.phase1_cached()
    report = _query(session).with_config(FAST).run()
    assert len(report.answer_ids) == 3
    twin = Session(_video(), counting_udf("car"), config=FAST)
    assert report.to_json() == _query(twin).run().to_json()


def test_a_stream_refuses_at_its_bootstrap():
    stream = Session.open_stream(
        _video(900), counting_udf("car"), initial_frames=300, config=DEFAULT)
    with pytest.raises(ConfigurationError):
        stream.phase1()
    with pytest.raises(ConfigurationError):
        _query(stream).run()
    assert stream._maintainer.label_oracle.calls == 0
    # The same video from a segment long enough — or under a config
    # whose sample fits — bootstraps.
    for frames, config in ((700, DEFAULT), (300, FAST)):
        workable = Session.open_stream(
            _video(900), counting_udf("car"), initial_frames=frames,
            config=config)
        assert len(_query(workable).run().answer_ids) == 3


def test_a_service_future_carries_the_refusal_and_the_service_goes_on():
    with QueryService(workers=2, use_processes=False) as service:
        short = Session(_video(), counting_udf("car"), config=DEFAULT)
        refused = service.submit(_query(short))
        assert isinstance(refused.exception(WAIT), ConfigurationError)
        fine = Session(_video(), counting_udf("car"), config=FAST)
        report = service.submit(_query(fine)).result(WAIT)
        assert report.to_json() == _query(
            Session(_video(), counting_udf("car"), config=FAST)).run().to_json()
        assert service.stats().builds == 1


def test_the_gateway_answers_400_configuration_error():
    config = GatewayConfig(
        session_config=DEFAULT, video_kwargs={"num_frames": 900, "seed": 5})
    with Gateway(config=config, workers=1, use_processes=False) as gateway:
        status, body = gateway.handle("POST", "/stream", {
            "stream": "short", "spec": "count[car]/traffic",
            "initial_frames": 300})
        assert status == 400
        assert body["error"] == "ConfigurationError"
        assert "300 frames" in body["message"]
        # Nothing was registered under the name: a workable request
        # may reuse it.
        status, body = gateway.handle("POST", "/stream", {
            "stream": "short", "spec": "count[car]/traffic",
            "initial_frames": 700, "k": 3})
        assert status == 201 and body["watermark"] == 700

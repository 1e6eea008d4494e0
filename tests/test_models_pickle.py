"""A restored network must keep learning (DESIGN.md §2, "pickle rule").

``MixtureDensityNetwork`` keeps every parameter in one packed vector
and hands its layers views of it. ``pickle`` does not preserve aliasing
between arrays, so a network restored *without* re-packing would
predict correctly and silently train nothing: the optimizer would step
a vector no layer reads. Predict-only round trips (pool workers) cannot
see that; these tests train after the round trip.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro import EverestConfig, Session
from repro.config import Phase1Config
from repro.models import Adam, build_conv_mdn, build_feature_mdn
from repro.oracle import counting_udf
from repro.parallel.pool import PersistentPool, Shipped
from repro.video import TrafficVideo

WAIT = 60


def _layer_bytes(network) -> bytes:
    """What the forward pass reads: the layers' own arrays."""
    return b"".join(
        value.tobytes()
        for layer in network.layers + [network.head]
        for value in layer.params.values())


def _train(network, x, y, steps=20) -> list:
    optimizer = Adam(2e-3)
    return [network.train_step(x, y, optimizer) for _ in range(steps)]


@pytest.mark.parametrize("roundtrip", [
    lambda network: pickle.loads(pickle.dumps(network)),
    lambda network: pickle.loads(pickle.dumps(network, protocol=2)),
    copy.deepcopy,
], ids=["pickle", "pickle-protocol-2", "deepcopy"])
@pytest.mark.parametrize("build", [
    lambda: (build_feature_mdn(num_gaussians=3, num_hypotheses=8, seed=2),
             (40, 16)),
    lambda: (build_conv_mdn((8, 8), num_gaussians=2, num_hypotheses=6,
                            num_conv_layers=1, seed=2), (12, 1, 8, 8)),
], ids=["feature", "conv"])
def test_restored_network_trains_like_the_original(build, roundtrip):
    rng = np.random.default_rng(0)
    original, shape = build()
    x, y = rng.normal(size=shape), rng.normal(size=shape[0])
    original.fit_target_scaling(y)
    _train(original, x, y, steps=5)     # a partly trained network ships
    restored = roundtrip(original)
    assert _layer_bytes(restored) == _layer_bytes(original)
    before = _layer_bytes(restored)

    assert _train(restored, x, y) == _train(original, x, y)
    assert _layer_bytes(restored) != before, "the restored network is frozen"
    assert _layer_bytes(restored) == _layer_bytes(original)
    assert restored.predict(x).mu.tobytes() == \
        original.predict(x).mu.tobytes()


def test_pickle_does_not_carry_the_parameters_twice():
    network = build_feature_mdn(num_gaussians=8, num_hypotheses=64)
    assert len(pickle.dumps(network)) < 1.5 * 8 * 2 * network.num_parameters()


# ----------------------------------------------------------------------
# Through the §7 store: checkpoint, resume, append.

STREAM_CONFIG = EverestConfig(phase1=Phase1Config(
    sample_fraction=0.05, min_train_samples=96, holdout_samples=48,
    cmdn_grid=((3, 12),), epochs=15))


def _open_stream():
    return Session.open_stream(
        TrafficVideo("pickle-stream", 480, seed=17), counting_udf("car"),
        initial_frames=240, config=STREAM_CONFIG)


def _live(stream):
    return stream.query().topk(5).guarantee(0.85).subscribe()


def test_resumed_stream_appends_like_its_twin(tmp_path):
    twin, checkpointed = _open_stream(), _open_stream()
    checkpointed.checkpoint(tmp_path / "ckpt")
    resumed = Session.resume(tmp_path / "ckpt")
    live_twin, live_resumed = _live(twin), _live(resumed)
    before = _layer_bytes(resumed.phase1().proxy.network)
    assert before == _layer_bytes(twin.phase1().proxy.network)

    for stream in (twin, resumed):
        stream.append(120)
    # The proxy is the bootstrap's for the life of the stream.
    after = _layer_bytes(resumed.phase1().proxy.network)
    assert after == before
    assert after == _layer_bytes(twin.phase1().proxy.network)
    assert live_resumed.latest.to_json() == live_twin.latest.to_json()
    assert resumed.phase1().cost_model.breakdown() == \
        twin.phase1().cost_model.breakdown()
    assert resumed.phase1().cost_model.total_seconds() == \
        twin.phase1().cost_model.total_seconds()


# ----------------------------------------------------------------------
# Predict-only round trips (what pool workers do) are unchanged.


def _mixture_bytes(proxy, pixels) -> bytes:
    mixtures = proxy.predict_mixtures(pixels)
    return b"".join(
        part.tobytes() for part in (mixtures.pi, mixtures.mu, mixtures.sigma))


def _shipped_mixture_bytes(handle: Shipped, pixels) -> bytes:
    return _mixture_bytes(handle.resolve(), pixels)


def test_shipped_proxy_predicts_the_same_bytes(trained_proxy, traffic_video):
    pixels = traffic_video.batch_pixels(np.arange(0, 600, 7))
    expected = _mixture_bytes(trained_proxy, pixels)
    handle = Shipped(trained_proxy)
    assert _shipped_mixture_bytes(handle, pixels) == expected
    with PersistentPool(1) as pool:
        assert pool.submit(
            _shipped_mixture_bytes, handle, pixels).result(WAIT) == expected


# ----------------------------------------------------------------------
# A pickle carries no training cache (DESIGN.md §3).

#: Per layer class, the attributes that hold the last training batch.
CACHES = {
    "Dense": ("_x",), "ReLU": ("_mask",), "Flatten": ("_shape",),
    "Conv2D": ("_cols", "_x_shape"), "MaxPool2D": ("_argmax", "_in_shape"),
    "MDNHead": ("_cache",),
}


def _cache_values(network):
    return [getattr(layer, name)
            for layer in network.layers + [network.head]
            for name in CACHES[type(layer).__name__]]


@pytest.mark.parametrize("config", [
    Phase1Config(),
    Phase1Config(sample_fraction=0.05, min_train_samples=128,
                 holdout_samples=64, cmdn_grid=((3, 16), (2, 8)), epochs=1,
                 use_feature_mdn=False),
], ids=["default", "conv"])
def test_a_pickled_proxy_carries_no_training_cache(config):
    frames = 1_500 if config.use_feature_mdn else 400
    session = Session(TrafficVideo("pickle-cache", frames, seed=41),
                      counting_udf("car"),
                      config=EverestConfig(phase1=config))
    proxy = session.phase1().proxy
    network = proxy.network
    # The fit released its last batch.
    assert all(value is None for value in _cache_values(network))
    blob = pickle.dumps(proxy)
    restored = pickle.loads(blob).network
    assert vars(restored).keys() == vars(network).keys()
    assert all(value is None for value in _cache_values(restored))
    if not config.use_feature_mdn:
        assert len(blob) < 1_000_000


@pytest.mark.parametrize("build", [
    lambda: (build_feature_mdn(num_gaussians=3, num_hypotheses=8, seed=2),
             (40, 16)),
    lambda: (build_conv_mdn((8, 8), num_gaussians=2, num_hypotheses=6,
                            num_conv_layers=1, seed=2), (12, 1, 8, 8)),
], ids=["feature", "conv"])
def test_a_mid_training_pickle_drops_the_batch_and_still_trains(build):
    rng = np.random.default_rng(3)
    original, shape = build()
    x, y = rng.normal(size=shape), rng.normal(size=shape[0])
    original.fit_target_scaling(y)
    _train(original, x, y, steps=3)     # caches hold the last batch
    assert any(value is not None for value in _cache_values(original))
    restored = pickle.loads(pickle.dumps(original))
    assert all(value is None for value in _cache_values(restored))
    for layer, twin in zip(restored.layers + [restored.head],
                           original.layers + [original.head]):
        assert vars(layer).keys() == vars(twin).keys()
    assert _train(restored, x, y) == _train(original, x, y)

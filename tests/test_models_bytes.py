"""Byte pins for the proxy trainer (DESIGN.md §2).

Training may be made cheaper only under the byte invariant, so the
bytes are pinned at three levels:

* ``_row_logsumexp`` against ``scipy.special.logsumexp`` — SciPy is the
  *test* oracle only; ``repro.models`` no longer imports it, so the
  goldens do not ride on whichever SciPy is installed;
* the packed optimizer step against the per-parameter Adam loop it
  replaced (kept here, as the reference);
* sha256 digests of trained parameters, loss histories and the Phase-1
  relation, recorded at commit ``915406e`` before ``models/`` changed;
* ``featurize`` is row-independent for both proxy families — the
  licence under which the block cache keeps feature rows per frame and
  scores a block assembled from kept and new rows (DESIGN.md §7). If
  it fails on some numpy, the failure is the finding: the cache must
  stop keeping rows there, not compare with a tolerance.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from scipy.special import logsumexp

from repro import EverestConfig, Session
from repro.models import Adam, build_feature_mdn
from repro.models.cmdn import ConvMDNProxy, FeatureMDNProxy
from repro.models.mdn import _row_logsumexp
from repro.oracle import counting_udf
from repro.video import TrafficVideo


# ----------------------------------------------------------------------
# (a) the in-house log-sum-exp is SciPy's, byte for byte


def _equal_bytes(a: np.ndarray) -> bool:
    ours = _row_logsumexp(a)
    theirs = logsumexp(a, axis=-1, keepdims=True)
    return ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 300.0])
def test_row_logsumexp_matches_scipy_bytes(scale):
    rng = np.random.default_rng(int(scale * 10))
    for rows in (1, 2, 3, 8, 9, 33, 64, 70):
        for width in range(1, 9):
            a = rng.normal(0.0, scale, (rows, width))
            assert _equal_bytes(a), (rows, width)
            # Rounded entries tie often, also at the maximum.
            assert _equal_bytes(np.round(a)), (rows, width)


def test_row_logsumexp_edge_rows_match_scipy_bytes():
    a = np.random.default_rng(5).normal(0.0, 3.0, (8, 6))
    a[0, 1] = a[0, 4] = a[0].max() + 1.0    # tied maxima
    a[1, 2] = -np.inf                       # one -inf entry
    a[2, :] = -np.inf                       # all -inf: log(0)
    a[3, :] = 3.25                          # all equal
    a[4, 0] = np.inf                        # +inf maximum
    a[5, 3] = np.nan
    a[6, :] = 800.0                         # exp overflows unshifted
    assert _equal_bytes(a)
    assert _row_logsumexp(a)[2, 0] == -np.inf
    assert _equal_bytes(a[:, :1])
    assert _equal_bytes(a.reshape(2, 4, 6))


# ----------------------------------------------------------------------
# (c) one packed Adam step == the per-parameter loop it replaced


class _PerParameterAdam:
    """The optimizer as it was before parameters were packed: one
    update per ``(layer, name)`` array, each with its own moments."""

    def __init__(self, learning_rate, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self._m, self._v, self._t = {}, {}, 0

    def step(self, model) -> None:
        self._t += 1
        lr_t = self.learning_rate * (
            np.sqrt(1.0 - self.beta2 ** self._t)
            / (1.0 - self.beta1 ** self._t)
        )
        for layer in model.layers + [model.head]:
            for name, value in layer.params.items():
                grad = layer.grads[name]
                key = (id(layer), name)
                if key not in self._m:
                    self._m[key] = np.zeros_like(value)
                    self._v[key] = np.zeros_like(value)
                m, v = self._m[key], self._v[key]
                m *= self.beta1
                m += (1.0 - self.beta1) * grad
                v *= self.beta2
                v += (1.0 - self.beta2) * grad * grad
                value -= lr_t * m / (np.sqrt(v) + self.epsilon)


def _theta(network) -> bytes:
    return np.concatenate(
        [np.ravel(value) for _, _, value in network.parameters]).tobytes()


def test_packed_adam_equals_per_parameter_adam():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(200, 16))
    y = x[:, 0] * 2.0 - x[:, 3] + rng.normal(0.0, 0.1, 200)
    packed, reference = (
        build_feature_mdn(num_gaussians=5, num_hypotheses=12, seed=4)
        for _ in range(2))
    assert _theta(packed) == _theta(reference)
    packed_opt, reference_opt = Adam(2e-3), _PerParameterAdam(2e-3)
    for network in (packed, reference):
        network.fit_target_scaling(y)
    for step in range(50):
        batch = rng.choice(200, 64, replace=False)
        loss = packed.train_step(x[batch], y[batch], packed_opt)
        assert loss == reference.train_step(
            x[batch], y[batch], reference_opt), step
    assert _theta(packed) == _theta(reference)
    # One triple, and the layers' arrays are views of it.
    ((owner, name, theta),) = packed.parameters
    assert theta.size == packed.num_parameters()
    assert all(np.shares_memory(value, theta)
               for layer in packed.layers + [packed.head]
               for value in layer.params.values())
    assert owner.grads[name].shape == theta.shape


# ----------------------------------------------------------------------
# (b) digests recorded at the parent commit, before models/ changed


def _digest(*arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return sha.hexdigest()


PINS = {
    ("pin-11", 11, "fast"): {
        "hyperparameters": (3, 16),
        "parameters": "bc001cfa9c1c1cc6279b17cd0e3983755ec43655658dc103"
                      "094032824f3b3151",
        "histories": "f2cfabe4ddd4d7e042bb7d09c1f1c35293e38e7500167cd8f"
                     "31e912e2b916d7f",
        "relation": "d48ef56ce1ac586bb21b8aac2d2ce7604a50f8649431690f94"
                    "576c0a9fa3b16f",
        "mixtures": "bae696797866306ae02eb59e525ca30912d694dbd236560e93"
                    "c10c7595a30350",
    },
    ("pin-23", 23, "fast"): {
        "hyperparameters": (3, 16),
        "parameters": "03cc3c2dbc21c3530e81d9df103666f3bb491031ad1828b0"
                      "a97e31bea2eb7751",
        "histories": "4f6fa0a01b89921e565bd6ae2e39918059a8e0a40f132f173"
                     "c8852bdf768da97",
        "relation": "cfe5b661acc9a67ece97410466552e2b168ed539e9a8303ecc"
                    "2f50cecbb66623",
        "mixtures": "b87c931ebadefbea5afafa44533e8ef66380addb5cf5d64e46"
                    "29df804a6407b9",
    },
    # The default three-candidate grid: shared features, selection.
    ("pin-grid", 37, "default"): {
        "hyperparameters": (8, 16),
        "parameters": "98ef32fa44899c10818225a14f95fd2a369524d5a74b72b0"
                      "de5c41a64b82d1a1",
        "histories": "3a06f4f09984802ae2d8ba38263c4246b73fb64019bee2ad1"
                     "7f0a2d05b966f11",
        "relation": "ca738441adc3e3a8313ddf4252051653c78d5089db3e9dd092"
                    "12513aa03b14a0",
        "mixtures": "ee33f7b5383a2ec736932d74274a5d4d0897c8db16fba329b7"
                    "8b4a8cc8d63743",
    },
}


@pytest.mark.parametrize("name,seed,config", list(PINS))
def test_phase1_training_bytes_are_pinned(name, seed, config):
    session = Session(
        TrafficVideo(name, 900, seed=seed), counting_udf("car"),
        config=EverestConfig.fast() if config == "fast"
        else EverestConfig())
    result = session.phase1().result
    grid = result.relation.grid
    assert {
        "hyperparameters": result.proxy.hyperparameters,
        "parameters": _digest(*[
            np.ravel(v) for _, _, v in result.proxy.network.parameters]),
        "histories": _digest(*[
            np.array(h.epoch_losses + [h.holdout_nll])
            for h in result.grid_result.histories]),
        "relation": _digest(
            result.relation.pmf,
            np.array([grid.floor, grid.step, grid.num_levels])),
        "mixtures": _digest(
            result.mixtures.pi, result.mixtures.mu, result.mixtures.sigma),
    } == PINS[(name, seed, config)]


# ----------------------------------------------------------------------
# (d) a frame's feature row depends on that frame's pixels only


@pytest.mark.parametrize("family", [FeatureMDNProxy, ConvMDNProxy])
def test_featurize_is_row_independent(family):
    block = 512
    video = TrafficVideo("rows", block, seed=5)
    ids = np.arange(block)
    pixels = video.batch_pixels(ids)
    whole = family.featurize(pixels)
    assert whole.shape[0] == block

    def check(rows, part):
        assert family.featurize(part).tobytes() == whole[rows].tobytes(), \
            rows

    rng = np.random.default_rng(9)
    # Contiguous splits, every batch size from one frame to a block
    # short of one row somewhere among them.
    for n in (1, 2, 3, 7, 8, 9, 63, 64, 65, 511):
        check(slice(0, n), pixels[:n])
        check(slice(block - n, block), pixels[block - n:])
    for _ in range(200):
        a = int(rng.integers(0, block))
        b = int(rng.integers(a + 1, block + 1))
        check(slice(a, b), pixels[a:b])
    # Gathered rows (how a block is assembled from kept and new rows),
    # and the same frames rendered on their own.
    for trial in range(40):
        rows = np.sort(rng.choice(
            block, size=int(rng.integers(1, block)), replace=False))
        check(rows, pixels[rows])
        if trial < 8:
            check(rows, video.batch_pixels(ids[rows]))

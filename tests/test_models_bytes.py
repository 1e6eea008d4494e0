"""Byte pins for the proxy trainer (DESIGN.md §3).

Training may be made cheaper only under the byte invariant, so the
bytes are pinned at three levels:

* ``_row_logsumexp`` against ``scipy.special.logsumexp`` — SciPy is the
  *test* oracle only; ``repro.models`` no longer imports it, so the
  goldens do not ride on whichever SciPy is installed;
* the packed optimizer step against the per-parameter Adam loop it
  replaced (kept here, as the reference);
* sha256 digests of trained parameters, loss histories and the Phase-1
  relation, recorded at commit ``915406e`` before ``models/`` changed
  (the conv CMDN's at ``9b3839f``, before its training step did);
* ``featurize`` is row-independent for both proxy families — the
  licence under which the block cache keeps feature rows per frame and
  scores a block assembled from kept and new rows (DESIGN.md §7). If
  it fails on some numpy, the failure is the finding: the cache must
  stop keeping rows there, not compare with a tolerance;
* the SciPy calls ``import repro`` no longer pays for, against SciPy
  as the oracle: the AR(1) recursion of the synthetic generators vs
  ``scipy.signal.lfilter`` and the in-house ``ndtr`` vs
  ``scipy.stats.norm.cdf``, through ``quantize_mixtures`` and on
  mixture CDFs at extreme ``z`` (``tests/test_ndtr.py`` pins the port
  to ``scipy.special.ndtr`` itself) — plus
  sha256 digests of the generators' output for the seeds perfbench
  uses, recorded at commit ``ca02269`` before ``video/synthetic.py``
  changed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from scipy.signal import lfilter
from scipy.special import logsumexp
from scipy.stats import norm

from repro import EverestConfig, Session
from repro.config import Phase1Config
from repro.core.uncertain import (
    TRUNCATE_SIGMAS, QuantizationGrid, _ndtr, quantize_mixtures)
from repro.models import Adam, build_feature_mdn
from repro.models.cmdn import ConvMDNProxy, FeatureMDNProxy
from repro.models.mdn import QUIET, GaussianMixture, _row_logsumexp
from repro.oracle import counting_udf
from repro.video import TrafficVideo
from repro.video.synthetic import ObjectCountProcess, _ar1, _ou_process


# ----------------------------------------------------------------------
# (a) the in-house log-sum-exp is SciPy's, byte for byte


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """``_row_logsumexp`` under the errstate its callers enter."""
    with np.errstate(**QUIET):
        return _row_logsumexp(a)


def _equal_bytes(a: np.ndarray) -> bool:
    ours = _logsumexp(a)
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
    assert _logsumexp(a)[2, 0] == -np.inf
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
    # The conv CMDN (400 frames, two candidates, three epochs): its
    # training step skips the first conv layer's col2im. Recorded at
    # commit ``9b3839f``, before the training step changed.
    ("pin-conv", 41, "conv"): {
        "hyperparameters": (2, 8),
        "parameters": "e521f526f12961b2dca4b9782578da7c8302337a6a8549aa"
                      "af61b8dfb048ef02",
        "histories": "3b3592fbdd0d87ef2d62c57b294ae5049306143dc1746c070"
                     "aa4a8d808a73928",
        "relation": "87069a628b603831eb1253a457007bd3a21244913d504cc73f"
                    "409731804b3d19",
        "mixtures": "61ca1483e6bd2c792a7ae5dd1294c7bfec88bef9d2fa8e94f5"
                    "a767c4615b0650",
    },
}

#: The configurations the pins were recorded under.
PIN_CONFIGS = {
    "fast": EverestConfig.fast(),
    "default": EverestConfig(),
    "conv": EverestConfig(phase1=Phase1Config(
        sample_fraction=0.05, min_train_samples=128, holdout_samples=64,
        cmdn_grid=((3, 16), (2, 8)), epochs=3, use_feature_mdn=False)),
}


@pytest.mark.parametrize("name,seed,config", list(PINS))
def test_phase1_training_bytes_are_pinned(name, seed, config):
    session = Session(
        TrafficVideo(name, 400 if config == "conv" else 900, seed=seed),
        counting_udf("car"), config=PIN_CONFIGS[config])
    entry = session.phase1()
    grid = entry.relation.grid
    assert {
        "hyperparameters": entry.proxy.hyperparameters,
        "parameters": _digest(*[
            np.ravel(v) for _, _, v in entry.proxy.network.parameters]),
        "histories": _digest(*[
            np.array(h.epoch_losses + [h.holdout_nll])
            for h in entry.grid_result.histories]),
        "relation": _digest(
            entry.relation.pmf,
            np.array([grid.floor, grid.step, grid.num_levels])),
        "mixtures": _digest(
            entry.mixtures.pi, entry.mixtures.mu, entry.mixtures.sigma),
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


# ----------------------------------------------------------------------
# (e) the two in-house replacements for SciPy's signal and stats stacks


@pytest.mark.parametrize(
    "coefficient", [0.0, 0.5, 0.95, 0.99, 0.995, 0.996, 0.9999])
def test_ar1_matches_lfilter_bytes(coefficient):
    rng = np.random.default_rng(int(coefficient * 10_000))
    for length in (1, 2, 7, 1_500, 3_000, 20_000):
        for scale in (0.02, 0.35, 40.0):
            eps = rng.normal(0.0, scale, length)
            ours = _ar1(eps, coefficient)
            theirs = lfilter([1.0], [1.0, -coefficient], eps)
            assert ours.dtype == theirs.dtype
            assert ours.tobytes() == theirs.tobytes(), (length, scale)


#: sha256 prefixes of ``ObjectCountProcess.counts`` followed by an
#: ``_ou_process`` path, as ``TrafficVideo(seed=...)`` derives them.
GENERATOR_PINS = {
    301: "f4a14383e96a8fb7", 302: "ac560e12cad9da5e",
    303: "5f37045c09795ab1", 304: "192719ca50515052",
    311: "8023cccab86b733a", 312: "4743bedfc6c936ce",
    313: "d0481bfdcf80cfdc", 314: "578fd2339818a3ab",
    321: "60091d27a38b3e00",
    331: "bdd9c8ec6270d5e3", 332: "c133a2b0de9f17de",
    333: "121c56b2582e1181", 334: "11f1253f2ab8f5f5",
}


def test_generator_bytes_are_pinned_for_the_perfbench_seeds():
    digests = {}
    for seed in GENERATOR_PINS:
        sha = hashlib.sha256()
        sha.update(ObjectCountProcess(
            3_000, seed=seed ^ 0xC0FFEE).counts.tobytes())
        sha.update(_ou_process(
            3_000, mean=0.0, reversion=0.01, volatility=0.02,
            seed=seed ^ 0x111).tobytes())
        digests[seed] = sha.hexdigest()[:16]
    assert digests == GENERATOR_PINS


def _quantize_with_norm_cdf(mixtures, grid):
    """``quantize_mixtures`` as it was, on ``scipy.stats.norm.cdf``."""
    edges = grid.edges()
    pmf = np.zeros((mixtures.pi.shape[0], grid.num_levels))
    lo = mixtures.mu - TRUNCATE_SIGMAS * mixtures.sigma
    hi = mixtures.mu + TRUNCATE_SIGMAS * mixtures.sigma
    for j in range(mixtures.pi.shape[1]):
        mu = mixtures.mu[:, j][:, None]
        sigma = mixtures.sigma[:, j][:, None]
        lo_j, hi_j = lo[:, j][:, None], hi[:, j][:, None]
        clipped_lo = np.clip(edges[None, :-1], lo_j, hi_j)
        clipped_hi = np.clip(edges[None, 1:], lo_j, hi_j)
        mass = norm.cdf((clipped_hi - mu) / sigma) \
            - norm.cdf((clipped_lo - mu) / sigma)
        touched = clipped_hi > clipped_lo
        num_touched = np.maximum(touched.sum(axis=1, keepdims=True), 1)
        trimmed = 1.0 - mass.sum(axis=1, keepdims=True)
        mass = mass + touched * (trimmed / num_touched)
        pmf += mixtures.pi[:, j][:, None] * mass
    totals = pmf.sum(axis=1, keepdims=True)
    totals[totals <= 0] = 1.0
    return np.clip(pmf / totals, 0.0, None)


def _mixtures(rng, rows, components, sigma_scale):
    pi = rng.dirichlet(np.ones(components), rows)
    mu = rng.normal(6.0, 5.0, (rows, components))
    sigma = np.abs(rng.normal(0.0, sigma_scale, (rows, components))) + 1e-3
    return GaussianMixture(pi=pi, mu=mu, sigma=sigma)


@pytest.mark.parametrize("sigma_scale", [1e-3, 0.3, 2.0, 40.0])
def test_ndtr_matches_norm_cdf_bytes_through_both_call_sites(sigma_scale):
    rng = np.random.default_rng(int(sigma_scale * 1_000))
    for components in (1, 3, 8):
        mixtures = _mixtures(rng, 400, components, sigma_scale)
        for grid in (QuantizationGrid(0.0, 1.0, 24),
                     QuantizationGrid(-3.0, 0.05, 400)):
            assert quantize_mixtures(mixtures, grid).tobytes() \
                == _quantize_with_norm_cdf(mixtures, grid).tobytes()
        # Extreme z (|z| > 38, and infinities) reaches ndtr here.
        x = np.concatenate([
            rng.normal(6.0, 10.0, 394),
            [-np.inf, np.inf, -1e300, 1e300, 0.0, -0.0],
        ])
        ours = np.sum(mixtures.pi * _ndtr(
            (x[..., None] - mixtures.mu) / mixtures.sigma), axis=-1)
        theirs = np.sum(mixtures.pi * norm.cdf(
            x[..., None], mixtures.mu, mixtures.sigma), axis=-1)
        assert ours.tobytes() == theirs.tobytes()
        assert ours[394] == 0.0 and abs(ours[395] - 1.0) < 1e-12

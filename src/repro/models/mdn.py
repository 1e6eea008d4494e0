"""Mixture density network head and Gaussian-mixture utilities.

The CMDN's final layer outputs, per input, the parameters of a
``g``-component Gaussian mixture: weights ``pi`` (softmax), means
``mu``, and standard deviations ``sigma`` (softplus, floored). Training
minimizes the negative log-likelihood of the observed oracle score.

:class:`GaussianMixture` is the library's value type for "a frame's
score distribution": Phase 1 produces one per retained frame, the
window model (paper Eq. 9) aggregates their moments, and the uncertain
relation quantizes them into x-tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import ShapeError
from .layers import Layer, _he_init

#: Floor on component standard deviations for numerical stability.
SIGMA_FLOOR = 1e-3

_LOG_2PI = float(np.log(2.0 * np.pi))


#: The floating-point conditions :func:`_row_logsumexp` meets by design
#: (an all ``-inf`` row, a non-finite maximum, a direct sum that
#: overflows). Its callers enter ``np.errstate(**QUIET)``: a training
#: fit once for all its steps, :meth:`GaussianMixture.log_likelihood`
#: per call.
QUIET = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}


def _row_logsumexp(a: np.ndarray) -> np.ndarray:
    """``log(sum(exp(a), axis=-1, keepdims=True))`` of a float64 array.

    Mirrors, operation for operation, what SciPy 1.17's ``logsumexp``
    computes for real input without weights, so results are byte-equal
    to it (``tests/test_models_bytes.py``) while the trained weights do
    not depend on the installed SciPy: the maxima of a
    row are masked to ``-inf`` and counted (``m``) instead of being
    exponentiated, the rest is shifted by the row maximum, and the
    result is ``log1p(sum / m) + log(m) + max``. Rows whose result is
    not finite (a ``+-inf`` maximum, a NaN) take the direct
    ``log(sum(exp(a)))`` instead, whose IEEE behaviour is the answer.
    SciPy's sign bookkeeping is left out: without weights the shifted
    sum is never negative. Run it under ``np.errstate(**QUIET)``.
    """
    a_max = a.max(axis=-1, keepdims=True)
    is_max = a == a_max
    m = is_max.sum(axis=-1, keepdims=True, dtype=np.float64)
    shifted = np.where(is_max, -np.inf, a)
    shifted -= a_max
    s = np.exp(shifted, out=shifted).sum(axis=-1, keepdims=True)
    s = np.where(s == 0, s, s / m)
    out = np.log1p(s) + np.log(m) + a_max
    finite = np.isfinite(out)
    if not finite.all():
        direct = np.log(np.exp(a).sum(axis=-1, keepdims=True))
        out = np.where(finite, out, direct)
    return out


def _log_components(pi, mu, sigma, y):
    """``log(pi_j N(y | mu_j, sigma_j))`` per component, and the
    standardized residual ``z`` it was computed from, and ``z * z``."""
    z = (y - mu) / sigma
    z2 = z * z
    log_comp = (
        np.log(np.maximum(pi, 1e-300))
        - np.log(sigma)
        - 0.5 * (z2 + _LOG_2PI)
    )
    return log_comp, z, z2


@dataclass(frozen=True)
class GaussianMixture:
    """A 1-D Gaussian mixture: ``pi`` weights, ``mu`` means, ``sigma`` stds.

    Arrays may be batched: shape ``(..., g)``. All operations broadcast
    over leading dimensions.
    """

    pi: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        if not (self.pi.shape == self.mu.shape == self.sigma.shape):
            raise ShapeError(
                f"mixture parameter shapes differ: {self.pi.shape}, "
                f"{self.mu.shape}, {self.sigma.shape}")

    def mean(self) -> np.ndarray:
        """Mixture mean ``sum_j pi_j mu_j`` (paper: mu-bar)."""
        return np.sum(self.pi * self.mu, axis=-1)

    def variance(self) -> np.ndarray:
        """Total variance ``sum_j pi_j (sigma_j^2 + mu_j^2) - mean^2``."""
        mean = self.mean()
        second_moment = np.sum(
            self.pi * (self.sigma ** 2 + self.mu ** 2), axis=-1)
        return np.maximum(second_moment - mean ** 2, 0.0)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)[..., None]
        z = (x - self.mu) / self.sigma
        comp = np.exp(-0.5 * z * z) / (self.sigma * np.sqrt(2 * np.pi))
        return np.sum(self.pi * comp, axis=-1)

    def log_likelihood(self, y: np.ndarray) -> np.ndarray:
        """Per-sample log p(y) for batched parameters."""
        y = np.asarray(y, dtype=np.float64)[..., None]
        log_comp, _, _ = _log_components(self.pi, self.mu, self.sigma, y)
        with np.errstate(**QUIET):
            log_norm = _row_logsumexp(log_comp)
        # [()] turns the 0-d result of an unbatched mixture into a scalar.
        return log_norm[..., 0][()]

    def select(self, index) -> "GaussianMixture":
        """Slice batched parameters (e.g. one frame's mixture)."""
        return GaussianMixture(
            pi=self.pi[index], mu=self.mu[index], sigma=self.sigma[index])

    @staticmethod
    def concatenate(parts: Sequence["GaussianMixture"]) -> "GaussianMixture":
        """Row-wise concatenation of batched mixtures (none: no rows)."""
        if not parts:
            empty = np.zeros((0, 1))
            return GaussianMixture(empty, empty.copy(), empty.copy())
        return GaussianMixture(
            pi=np.concatenate([p.pi for p in parts]),
            mu=np.concatenate([p.mu for p in parts]),
            sigma=np.concatenate([p.sigma for p in parts]),
        )


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class MDNHead(Layer):
    """Final layer mapping ``h`` features to mixture parameters.

    Produces, per sample, ``g`` logits (-> pi via softmax), ``g`` means,
    and ``g`` pre-sigmas (-> sigma via softplus + floor). The loss is
    the mixture NLL; gradients follow the standard responsibility form.
    """

    def __init__(self, in_features: int, num_components: int, *, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        g = num_components
        self.in_features = in_features
        self.num_components = g
        self.params = {
            "W": _he_init(rng, in_features, (in_features, 3 * g)),
            "b": np.zeros(3 * g),
        }
        # Spread initial means so components start diverse.
        self.params["b"][g:2 * g] = np.linspace(-1.0, 1.0, g)
        # Start sigmas near softplus^-1(1.0).
        self.params["b"][2 * g:] = 0.54
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._cache: Optional[Tuple] = None

    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        """Return raw ``(N, 3g)`` pre-activations; use :meth:`mixture`."""
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"MDNHead expected (N, {self.in_features}), got {x.shape}")
        out = x @ self.params["W"] + self.params["b"]
        if training:
            self._cache = (x, out)
        return out

    def _decode(self, raw: np.ndarray):
        """``(pi, mu, sigma)`` arrays of raw pre-activations."""
        g = self.num_components
        pi = _softmax(raw[:, :g])
        mu = raw[:, g:2 * g]
        sigma = _softplus(raw[:, 2 * g:]) + SIGMA_FLOOR
        return pi, mu, sigma

    def mixture(self, raw: np.ndarray) -> GaussianMixture:
        """Decode raw pre-activations into mixture parameters."""
        pi, mu, sigma = self._decode(raw)
        return GaussianMixture(pi=pi, mu=mu, sigma=sigma)

    def nll(self, raw: np.ndarray, y: np.ndarray) -> float:
        """Mean negative log-likelihood of targets ``y``."""
        return float(-np.mean(self.mixture(raw).log_likelihood(y)))

    def loss_and_backward(self, y: np.ndarray) -> Tuple[float, np.ndarray]:
        """NLL of the last *training* forward; returns (loss, grad_x).

        Run it under ``np.errstate(**QUIET)`` (a fit enters it once).
        """
        assert self._cache is not None, "call forward(training=True) first"
        x, raw = self._cache
        n = raw.shape[0]
        g = self.num_components
        pi, mu, sigma = self._decode(raw)
        y_col = np.asarray(y, dtype=np.float64)[:, None]

        log_comp, z, z2 = _log_components(pi, mu, sigma, y_col)
        log_norm = _row_logsumexp(log_comp)
        resp = np.exp(log_comp - log_norm)  # responsibilities gamma
        # np.mean's own arithmetic: a pairwise sum, then one division.
        loss = float(-(np.add.reduce(log_norm, axis=None) / log_norm.size))

        # Gradients of mean NLL wrt raw pre-activations.
        grad_raw = np.empty_like(raw)
        grad_raw[:, :g] = (pi - resp) / n                # pi logits
        grad_raw[:, g:2 * g] = (resp * (-z) / sigma) / n  # means
        # d sigma / d pre-sigma = sigmoid(pre-sigma)
        pre_sigma = raw[:, 2 * g:]
        dsigma = 1.0 / (1.0 + np.exp(-pre_sigma))
        grad_sigma = resp * (1.0 / sigma - z2 / sigma) / n
        grad_raw[:, 2 * g:] = grad_sigma * dsigma

        self.grads["W"] += x.T @ grad_raw
        self.grads["b"] += grad_raw.sum(axis=0)
        return loss, grad_raw @ self.params["W"].T

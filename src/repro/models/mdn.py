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

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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


class _LastAxis:
    """The rows of a regular array: its last axis. Each reduction keeps
    that axis, so its result broadcasts back as it is."""

    @staticmethod
    def max(a: np.ndarray) -> np.ndarray:
        return a.max(axis=-1, keepdims=True)

    @staticmethod
    def sum(a: np.ndarray) -> np.ndarray:
        return a.sum(axis=-1, keepdims=True)

    @staticmethod
    def count(mask: np.ndarray) -> np.ndarray:
        return mask.sum(axis=-1, keepdims=True, dtype=np.float64)

    @staticmethod
    def spread(v: np.ndarray) -> np.ndarray:
        return v


class GridRows:
    """The joint buffers of a lockstep grid of heads (DESIGN.md §3).

    A joint buffer is flat and member-major: head ``i``'s ``(n, g_i)``
    block is a contiguous span, so an elementwise ufunc runs once for
    the whole grid. :meth:`join` gathers the heads' raw ``(n, 3g)``
    pre-activations into three such buffers (logits, means, pre-sigmas)
    and :meth:`split_gradient` gathers the raw gradient back into one
    contiguous ``(n, 3g)`` array per head, for its own matmuls: one
    ``take`` each way.

    A row reduction gives one value per row, head after head (``k n``
    values), and :meth:`spread` takes them back to the buffer's layout.
    Row maxima are one ``np.maximum.reduceat`` and the counts of a
    mask one ``np.bincount`` (both exact in any order); sums stay one
    ``np.add.reduce`` per head on its own contiguous block, because a
    sum in another order rounds differently. Immutable, so one instance
    serves every fit of its shape (:func:`_grid_rows`).
    """

    def __init__(self, widths: Tuple[int, ...], n: int):
        self.n = n
        ends = np.cumsum([n * g for g in widths])
        self.size = int(ends[-1])
        #: Per head: its span of a joint buffer, its width ``g_i``, its
        #: span of a row vector and its span of the raws laid end to end.
        self.members = [
            (slice(int(end) - n * g, int(end)), g, slice(i * n, (i + 1) * n),
             slice(3 * (int(end) - n * g), 3 * int(end)))
            for i, (end, g) in enumerate(zip(ends, widths))]
        per_row = np.repeat(widths, n)
        self._starts = np.concatenate(([0], np.cumsum(per_row)[:-1]))
        self._spread = np.repeat(np.arange(per_row.size), per_row)
        #: Per joint position (section by section), its index in the
        #: raws laid end to end, and the inverse permutation.
        self._join = np.concatenate([
            (raws.start + np.arange(0, 3 * n * g, 3 * g)[:, None]
             + np.arange(section * g, (section + 1) * g)).ravel()
            for section in range(3) for _, g, _, raws in self.members])
        self._split = np.argsort(self._join)
        for index in (self._starts, self._spread, self._join, self._split):
            index.flags.writeable = False

    def max(self, a: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(a, self._starts)

    def sum(self, a: np.ndarray) -> np.ndarray:
        out = np.empty(self._starts.size)
        n = self.n
        for span, g, rows, _ in self.members:
            np.add.reduce(a[span].reshape(n, g), -1, None, out[rows])
        return out

    def count(self, mask: np.ndarray) -> np.ndarray:
        return np.bincount(
            self._spread, weights=mask, minlength=self._starts.size)

    def spread(self, v: np.ndarray) -> np.ndarray:
        return v.take(self._spread)

    def join(self, raws: Sequence[np.ndarray]) -> np.ndarray:
        return _end_to_end(raws).take(self._join).reshape(3, self.size)

    def join_targets(self, ys: Sequence[np.ndarray]) -> np.ndarray:
        return self.spread(_end_to_end(ys))

    def split(self, a: np.ndarray) -> List[np.ndarray]:
        return [a[rows] for _, _, rows, _ in self.members]

    def split_gradient(self, grad: np.ndarray) -> List[np.ndarray]:
        flat = grad.take(self._split)
        n = self.n
        return [flat[raws].reshape(n, 3 * g) for _, g, _, raws in self.members]


def _end_to_end(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The arrays flattened and laid end to end (one is not copied)."""
    if len(arrays) == 1:
        return np.asarray(arrays[0])
    return np.concatenate(arrays, axis=None)


@functools.lru_cache(maxsize=16)
def _grid_rows(widths: Tuple[int, ...], n: int) -> GridRows:
    return GridRows(widths, n)


def _row_logsumexp(a: np.ndarray, rows=_LastAxis) -> np.ndarray:
    """``log(sum(exp(a), axis=-1, keepdims=True))`` of a float64 array,
    or per row of a joint buffer (``rows`` a :class:`GridRows`).

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
    a_max = rows.max(a)
    spread_max = rows.spread(a_max)
    is_max = a == spread_max
    m = rows.count(is_max)
    shifted = np.where(is_max, -np.inf, a)
    shifted -= spread_max
    s = rows.sum(np.exp(shifted, out=shifted))
    s = np.where(s == 0, s, s / m)
    out = np.log1p(s) + np.log(m) + a_max
    finite = np.isfinite(out)
    if not finite.all():
        direct = np.log(rows.sum(np.exp(a)))
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


def _softmax(x: np.ndarray, rows=_LastAxis) -> np.ndarray:
    exp = x - rows.spread(rows.max(x))
    np.exp(exp, out=exp)
    exp /= rows.spread(rows.sum(exp))
    return exp


def _mixture_params(logits, mu, pre_sigma, rows=_LastAxis):
    """``(pi, mu, sigma)`` of the three sections of raw pre-activations."""
    return _softmax(logits, rows), mu, _softplus(pre_sigma) + SIGMA_FLOOR


class MDNHead(Layer):
    """Final layer mapping ``h`` features to mixture parameters.

    Produces, per sample, ``g`` logits (-> pi via softmax), ``g`` means,
    and ``g`` pre-sigmas (-> sigma via softplus + floor). The loss is
    the mixture NLL; gradients follow the standard responsibility form.
    """

    _CACHES = ("_cache",)

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
        return _mixture_params(raw[:, :g], raw[:, g:2 * g], raw[:, 2 * g:])

    def mixture(self, raw: np.ndarray) -> GaussianMixture:
        """Decode raw pre-activations into mixture parameters."""
        pi, mu, sigma = self._decode(raw)
        return GaussianMixture(pi=pi, mu=mu, sigma=sigma)

    def nll(self, raw: np.ndarray, y: np.ndarray) -> float:
        """Mean negative log-likelihood of targets ``y``."""
        return float(-np.mean(self.mixture(raw).log_likelihood(y)))

    def loss_and_backward(self, y: np.ndarray) -> Tuple[float, np.ndarray]:
        """NLL of the last *training* forward; returns (loss, grad_x):
        :func:`grid_loss_and_backward` of this head alone.

        Run it under ``np.errstate(**QUIET)`` (a fit enters it once).
        """
        (result,) = grid_loss_and_backward([self], [y])
        return result


def grid_loss_and_backward(
    heads: Sequence[MDNHead], ys: Sequence[np.ndarray]
) -> List[Tuple[float, np.ndarray]]:
    """Each head's NLL of its last *training* forward on its own targets
    (one minibatch size for all), its ``W`` / ``b`` gradients added, and
    ``(loss, grad_x)`` per head.

    The heads' raw pre-activations are gathered into one joint buffer,
    section-major (logits, means, pre-sigmas) and member-major within a
    section (:class:`GridRows`), so the elementwise math of the whole
    grid is one ufunc call per operation. Every value is the operation
    a head alone would compute, on the same operands and in the same
    order: the sums run per head on the same contiguous layout, and a
    head's raw gradient is gathered back into one contiguous ``(n, 3g)``
    array for its own matmuls.
    """
    rows = _grid_rows(
        tuple([head.num_components for head in heads]), len(ys[0]))
    n = float(rows.n)  # a float divides as the int did, minus its cast
    for head in heads:
        assert head._cache is not None, "call forward(training=True) first"
    raw = rows.join([head._cache[1] for head in heads])
    logits, mu, pre_sigma = raw
    pi, mu, sigma = _mixture_params(logits, mu, pre_sigma, rows)
    y = rows.join_targets(ys)

    log_comp, z, z2 = _log_components(pi, mu, sigma, y)
    log_norm = _row_logsumexp(log_comp, rows)
    log_comp -= rows.spread(log_norm)
    resp = np.exp(log_comp, out=log_comp)  # responsibilities gamma

    # Gradients of mean NLL wrt raw pre-activations.
    grad = np.empty_like(raw)
    grad_pi, grad_mu, grad_pre_sigma = grad
    np.subtract(pi, resp, out=grad_pi)                 # pi logits
    grad_pi /= n
    np.negative(z, out=grad_mu)                        # means
    grad_mu *= resp
    grad_mu /= sigma
    grad_mu /= n
    # d sigma / d pre-sigma = sigmoid(pre-sigma)
    dsigma = 1.0 / (1.0 + np.exp(-pre_sigma))
    grad_sigma = resp * (1.0 / sigma - z2 / sigma) / n
    np.multiply(grad_sigma, dsigma, out=grad_pre_sigma)

    results = []
    for head, head_log_norm, grad_raw in zip(
            heads, rows.split(log_norm), rows.split_gradient(grad)):
        # np.mean's own arithmetic: a pairwise sum, then one division.
        loss = float(-(np.add.reduce(head_log_norm, axis=None) / n))
        x = head._cache[0]
        head.grads["W"] += x.T @ grad_raw
        head.grads["b"] += np.add.reduce(grad_raw, 0)
        results.append((loss, grad_raw @ head.params["W"].T))
    return results

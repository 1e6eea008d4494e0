"""Frozen MDN head step: the reference the lockstep grid head is pinned to.

This is ``repro.models.mdn.MDNHead.loss_and_backward`` as it stood
before the heads of a grid ran their elementwise math on joint buffers:
one head, its raw ``(n, 3g)`` pre-activations sliced into strided
column views, row reductions along the last axis, kept operation for
operation (like ``reference_features.py`` for the feature extractor).
``tests/test_models_grid.py`` pins the library's joint head to it byte
for byte on crafted raws.

Do not "optimise" this file: its value is that it does not change.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

SIGMA_FLOOR = 1e-3

_LOG_2PI = float(np.log(2.0 * np.pi))


def _row_logsumexp(a: np.ndarray) -> np.ndarray:
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
    z = (y - mu) / sigma
    z2 = z * z
    log_comp = (
        np.log(np.maximum(pi, 1e-300))
        - np.log(sigma)
        - 0.5 * (z2 + _LOG_2PI)
    )
    return log_comp, z, z2


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def loss_and_backward(
    x: np.ndarray, raw: np.ndarray, W: np.ndarray, y: np.ndarray
) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """One head's ``(loss, grad_x, grad_W, grad_b)`` for the training
    batch ``x`` whose forward gave ``raw``; run it under
    ``np.errstate(divide="ignore", invalid="ignore", over="ignore")``."""
    n = raw.shape[0]
    g = raw.shape[1] // 3
    pi = _softmax(raw[:, :g])
    mu = raw[:, g:2 * g]
    sigma = np.logaddexp(0.0, raw[:, 2 * g:]) + SIGMA_FLOOR
    y_col = np.asarray(y, dtype=np.float64)[:, None]

    log_comp, z, z2 = _log_components(pi, mu, sigma, y_col)
    log_norm = _row_logsumexp(log_comp)
    resp = np.exp(log_comp - log_norm)
    loss = float(-(np.add.reduce(log_norm, axis=None) / log_norm.size))

    grad_raw = np.empty_like(raw)
    grad_raw[:, :g] = (pi - resp) / n
    grad_raw[:, g:2 * g] = (resp * (-z) / sigma) / n
    pre_sigma = raw[:, 2 * g:]
    dsigma = 1.0 / (1.0 + np.exp(-pre_sigma))
    grad_sigma = resp * (1.0 / sigma - z2 / sigma) / n
    grad_raw[:, 2 * g:] = grad_sigma * dsigma

    grad_W = np.zeros_like(W)
    grad_W += x.T @ grad_raw
    grad_b = np.zeros(3 * g)
    grad_b += grad_raw.sum(axis=0)
    return loss, grad_raw @ W.T, grad_W, grad_b

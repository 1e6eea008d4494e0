"""Neural-network layers implemented in pure numpy.

The paper's proxy is a convolutional mixture density network trained
with PyTorch. PyTorch is unavailable offline, so this module provides
the minimal layer zoo the CMDN needs — Dense, ReLU, Flatten, Conv2D
(im2col-based) and MaxPool2D — each with explicit ``forward`` /
``backward`` passes and per-parameter gradients consumable by the
optimizers in :mod:`repro.models.optim`.

Array convention: batches are leading, images are ``(N, C, H, W)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ShapeError


class Layer:
    """Base layer: stateless unless it owns parameters.

    Subclasses populate ``params`` / ``grads`` dicts keyed by parameter
    name; ``forward`` caches whatever ``backward`` needs, in the
    attributes named by ``_CACHES``. A cache holds the last training
    batch only: a fit drops it when it ends (:meth:`release`) and a
    pickle carries it as ``None``.
    """

    _CACHES: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        state.update(dict.fromkeys(self._CACHES))
        return state

    def release(self) -> None:
        """Drop the last training batch's caches."""
        self.__dict__.update(dict.fromkeys(self._CACHES))

    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def accumulate_grads(self, grad_out: np.ndarray) -> None:
        """:meth:`backward` without the input gradient: a network's
        first layer adds its parameter gradients and stops, since
        nothing reads the gradient of the network's input."""
        self.backward(grad_out)

    def zero_grads(self) -> None:
        for key in self.grads:
            self.grads[key][...] = 0.0


def _he_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    """He-normal initialization, appropriate for ReLU stacks."""
    scale = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, scale, size=shape)


class Dense(Layer):
    """Fully connected layer ``y = x W + b``."""

    _CACHES = ("_x",)

    def __init__(self, in_features: int, out_features: int, *, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.in_features = in_features
        self.out_features = out_features
        self.params = {
            "W": _he_init(rng, in_features, (in_features, out_features)),
            "b": np.zeros(out_features),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"Dense expected (N, {self.in_features}), got {x.shape}")
        self._x = x if training else None
        return x @ self.params["W"] + self.params["b"]

    def accumulate_grads(self, grad_out: np.ndarray) -> None:
        assert self._x is not None, "backward before training forward"
        self.grads["W"] += self._x.T @ grad_out
        self.grads["b"] += np.add.reduce(grad_out, 0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.accumulate_grads(grad_out)
        return grad_out @ self.params["W"].T


class ReLU(Layer):
    """Elementwise max(0, x)."""

    _CACHES = ("_mask",)

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        mask = x > 0
        self._mask = mask if training else None
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._mask is not None
        return grad_out * self._mask


class Flatten(Layer):
    """Collapse all but the batch dimension."""

    _CACHES = ("_shape",)

    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        self._shape = x.shape if training else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._shape is not None
        return grad_out.reshape(self._shape)


def _im2col(
    x: np.ndarray, kernel: int, pad: int
) -> Tuple[np.ndarray, int, int]:
    """Unfold ``(N, C, H, W)`` into ``(N, out_h, out_w, C*k*k)`` columns
    (stride 1)."""
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out_h = h + 2 * pad - kernel + 1
    out_w = w + 2 * pad - kernel + 1
    strides = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(
            strides[0], strides[1], strides[2], strides[3],
            strides[2], strides[3],
        ),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        n, out_h, out_w, c * kernel * kernel)
    return np.ascontiguousarray(cols), out_h, out_w


class Conv2D(Layer):
    """3x3-style convolution via im2col matmul: stride 1, 'same'
    padding (``kernel // 2`` on each side)."""

    _CACHES = ("_cols", "_x_shape")

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int = 3,
        *,
        seed: int = 0,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.pad = kernel // 2
        rng = np.random.default_rng(seed)
        fan_in = in_channels * kernel * kernel
        self.params = {
            "W": _he_init(rng, fan_in, (fan_in, out_channels)),
            "b": np.zeros(out_channels),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._cols: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv2D expected (N, {self.in_channels}, H, W), "
                f"got {x.shape}")
        cols, out_h, out_w = _im2col(x, self.kernel, self.pad)
        out = cols @ self.params["W"] + self.params["b"]
        if training:
            self._cols = cols
            self._x_shape = x.shape
        return out.transpose(0, 3, 1, 2)  # (N, out_c, out_h, out_w)

    def _param_grads(self, grad_out: np.ndarray) -> np.ndarray:
        """Add the batch's ``W`` / ``b`` gradients; return ``grad_out``
        as ``(N*oh*ow, out_c)`` rows."""
        assert self._cols is not None and self._x_shape is not None
        grad_cols = grad_out.transpose(0, 2, 3, 1)  # (N, oh, ow, out_c)
        flat_cols = self._cols.reshape(-1, self._cols.shape[-1])
        flat_grad = grad_cols.reshape(-1, self.out_channels)
        self.grads["W"] += flat_cols.T @ flat_grad
        self.grads["b"] += flat_grad.sum(axis=0)
        return flat_grad

    def accumulate_grads(self, grad_out: np.ndarray) -> None:
        self._param_grads(grad_out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        n, _, out_h, out_w = grad_out.shape
        flat_grad = self._param_grads(grad_out)

        # Gradient wrt input: scatter column gradients back (col2im).
        grad_col_in = flat_grad @ self.params["W"].T  # (N*oh*ow, C*k*k)
        grad_col_in = grad_col_in.reshape(
            n, out_h, out_w, self.in_channels, self.kernel, self.kernel)
        _, c, h, w = self._x_shape
        pad = self.pad
        grad_x = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
        for ky in range(self.kernel):
            for kx in range(self.kernel):
                grad_x[:, :, ky:ky + out_h, kx:kx + out_w] += \
                    grad_col_in[:, :, :, :, ky, kx].transpose(0, 3, 1, 2)
        if pad:
            grad_x = grad_x[:, :, pad:-pad, pad:-pad]
        return grad_x


class MaxPool2D(Layer):
    """Non-overlapping 2x2 (or k x k) max pooling."""

    _CACHES = ("_argmax", "_in_shape")

    def __init__(self, size: int = 2):
        super().__init__()
        self.size = size
        self._argmax: Optional[np.ndarray] = None
        self._in_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        s = self.size
        # Truncate ragged edges (matches common framework behaviour).
        h_t, w_t = (h // s) * s, (w // s) * s
        x_t = x[:, :, :h_t, :w_t]
        blocks = x_t.reshape(n, c, h_t // s, s, w_t // s, s)
        blocks = blocks.transpose(0, 1, 2, 4, 3, 5).reshape(
            n, c, h_t // s, w_t // s, s * s)
        out = blocks.max(axis=-1)
        if training:
            self._argmax = blocks.argmax(axis=-1)
            self._in_shape = x.shape
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._argmax is not None and self._in_shape is not None
        n, c, h, w = self._in_shape
        s = self.size
        out_h, out_w = grad_out.shape[2], grad_out.shape[3]
        grad_x = np.zeros((n, c, h, w))
        # Scatter each output gradient to the winning cell of its block.
        flat = self._argmax
        ky, kx = np.divmod(flat, s)
        ni, ci, yi, xi = np.indices((n, c, out_h, out_w))
        grad_x[ni, ci, yi * s + ky, xi * s + kx] = grad_out
        return grad_x

"""Sequential network container with an MDN head.

:class:`MixtureDensityNetwork` chains feature layers (conv stack or
dense stack) into an :class:`~repro.models.mdn.MDNHead` and exposes:

* :meth:`predict` — mixture parameters for a batch of inputs;
* :meth:`train_step` — one minibatch NLL gradient step (via optimizer).

Every parameter of every layer lives in one contiguous vector (and
every gradient in a second one); the layers' ``params`` / ``grads``
entries are reshaped views into them. The optimizer therefore sees one
``(layer, name, array)`` triple — the network itself, ``"theta"`` —
and zeroing the gradients is one fill. Optimizer updates are
elementwise, so the packed step is bit-identical to stepping each
array on its own. A pickle does not preserve aliasing between arrays:
the vectors are left out of the pickled state and rebuilt from the
layers' own arrays on load (:meth:`__setstate__`), or a restored
network would silently stop learning.

Target standardization is handled internally: training targets are
scaled to zero mean / unit variance, and predicted mixtures are mapped
back to score units, so one architecture works for counts (0..15) and
continuous scores alike.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..errors import NotFittedError, ShapeError
from .layers import Layer
from .mdn import GaussianMixture, MDNHead


class MixtureDensityNetwork:
    """Feature layers + MDN head with internal target scaling."""

    def __init__(self, layers: Sequence[Layer], head: MDNHead):
        self.layers: List[Layer] = list(layers)
        self.head = head
        self._y_mean = 0.0
        self._y_scale = 1.0
        self._fitted = False
        self._pack()

    # ------------------------------------------------------------------
    # Parameter plumbing (for optimizers)
    # ------------------------------------------------------------------
    def _pack(self) -> None:
        """Move every layer's parameters into one vector, in layer
        order, and rebind the layers' arrays as views of it (gradients
        likewise, zeroed)."""
        layers = self.layers + [self.head]
        theta = np.concatenate(
            [v.ravel() for layer in layers for v in layer.params.values()])
        grad = np.zeros_like(theta)
        start = 0
        for layer in layers:
            for name, value in layer.params.items():
                span = slice(start, start + value.size)
                layer.params[name] = theta[span].reshape(value.shape)
                layer.grads[name] = grad[span].reshape(value.shape)
                start = span.stop
        #: The optimizer protocol's view of the network: one parameter.
        self.params = {"theta": theta}
        self.grads = {"theta": grad}

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["params"], state["grads"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._pack()

    @property
    def parameters(self):
        """Yield ``(layer, name, array)`` triples for all parameters."""
        yield self, "theta", self.params["theta"]

    def zero_grads(self) -> None:
        self.grads["theta"].fill(0.0)

    def num_parameters(self) -> int:
        return self.params["theta"].size

    # ------------------------------------------------------------------
    # Target scaling
    # ------------------------------------------------------------------
    def fit_target_scaling(self, y: np.ndarray) -> None:
        y = np.asarray(y, dtype=np.float64)
        self._y_mean = float(np.mean(y))
        scale = float(np.std(y))
        self._y_scale = scale if scale > 1e-9 else 1.0
        self._fitted = True

    def scale_targets(self, y: np.ndarray) -> np.ndarray:
        """Scores in the standardized units the network trains on."""
        return (np.asarray(y, dtype=np.float64) - self._y_mean) / self._y_scale

    # ------------------------------------------------------------------
    # Forward / training
    # ------------------------------------------------------------------
    def _features(self, x: np.ndarray, *, training: bool) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def forward_raw(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        return self.head.forward(
            self._features(x, training=training), training=training)

    def train_step(self, x: np.ndarray, y: np.ndarray, optimizer) -> float:
        """One minibatch step; returns the (scaled-target) NLL."""
        if not self._fitted:
            raise NotFittedError(
                "call fit_target_scaling before training")
        return self.train_step_scaled(x, self.scale_targets(y), optimizer)

    def train_step_scaled(self, x: np.ndarray, scaled_y: np.ndarray,
                          optimizer) -> float:
        """:meth:`train_step` on targets already through
        :meth:`scale_targets` (a fit scales its sample once). The first
        layer's input gradient is not computed: nothing reads it."""
        self.zero_grads()
        self.forward_raw(x, training=True)
        loss, grad = self.head.loss_and_backward(scaled_y)
        first, *rest = self.layers
        for layer in reversed(rest):
            grad = layer.backward(grad)
        first.accumulate_grads(grad)
        optimizer.step(self)
        return loss

    def predict(self, x: np.ndarray, batch_size: int = 512) -> GaussianMixture:
        """Mixture parameters in *score units* for a batch of inputs."""
        if not self._fitted:
            raise NotFittedError("model has not been trained")
        x = np.asarray(x, dtype=np.float64)
        pis, mus, sigmas = [], [], []
        for start in range(0, x.shape[0], batch_size):
            chunk = x[start:start + batch_size]
            mix = self.head.mixture(self.forward_raw(chunk, training=False))
            pis.append(mix.pi)
            mus.append(mix.mu * self._y_scale + self._y_mean)
            sigmas.append(mix.sigma * self._y_scale)
        if not pis:
            g = self.head.num_components
            empty = np.zeros((0, g))
            return GaussianMixture(empty, empty.copy(), empty.copy())
        return GaussianMixture(
            pi=np.concatenate(pis),
            mu=np.concatenate(mus),
            sigma=np.concatenate(sigmas),
        )

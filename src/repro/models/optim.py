"""Gradient-descent optimizers for the numpy network stack."""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..errors import ConfigurationError


class SGD:
    """Vanilla SGD with optional momentum."""

    def __init__(self, learning_rate: float = 1e-2, momentum: float = 0.0):
        if learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError("momentum must be in [0, 1)")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self._velocity: Dict[Tuple[int, str], np.ndarray] = {}

    def step(self, model) -> None:
        for layer, name, value in model.parameters:
            grad = layer.grads[name]
            if self.momentum:
                key = (id(layer), name)
                v = self._velocity.get(key)
                if v is None:
                    v = np.zeros_like(value)
                v = self.momentum * v - self.learning_rate * grad
                self._velocity[key] = v
                value += v
            else:
                value -= self.learning_rate * grad


class Adam:
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        if learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigurationError("betas must be in [0, 1)")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        #: Per parameter: the moments ``m``, ``v`` and two scratch
        #: arrays the update's temporaries are written into.
        self._slots: Dict[Tuple[int, str], Tuple[np.ndarray, ...]] = {}
        self._t = 0

    def step(self, model) -> None:
        """``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g``, then
        ``theta -= lr_t m / (sqrt(v) + eps)``: every product and sum in
        that order, each written in place."""
        self._t += 1
        lr_t = self.learning_rate * (
            np.sqrt(1.0 - self.beta2 ** self._t)
            / (1.0 - self.beta1 ** self._t)
        )
        for layer, name, value in model.parameters:
            grad = layer.grads[name]
            key = (id(layer), name)
            slots = self._slots.get(key)
            if slots is None:
                slots = tuple(np.zeros_like(value) for _ in range(4))
                self._slots[key] = slots
            m, v, scratch, denominator = slots
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, grad, out=scratch)
            v *= self.beta2
            np.multiply(1.0 - self.beta2, grad, out=scratch)
            v += np.multiply(scratch, grad, out=scratch)
            np.sqrt(v, out=denominator)
            denominator += self.epsilon
            np.multiply(lr_t, m, out=scratch)
            value -= np.divide(scratch, denominator, out=scratch)

"""The gradient-descent optimizer of the numpy network stack."""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..errors import ConfigurationError

#: Adam's moment decay rates and denominator guard (Kingma & Ba's
#: defaults, which every trainer here uses).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class Adam:
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(self, learning_rate: float = 1e-3):
        if learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        self.learning_rate = learning_rate
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
            np.sqrt(1.0 - ADAM_BETA2 ** self._t)
            / (1.0 - ADAM_BETA1 ** self._t)
        )
        for layer, name, value in model.parameters:
            grad = layer.grads[name]
            key = (id(layer), name)
            slots = self._slots.get(key)
            if slots is None:
                slots = tuple(np.zeros_like(value) for _ in range(4))
                self._slots[key] = slots
            m, v, scratch, denominator = slots
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, grad, out=scratch)
            v *= ADAM_BETA2
            np.multiply(1.0 - ADAM_BETA2, grad, out=scratch)
            v += np.multiply(scratch, grad, out=scratch)
            np.sqrt(v, out=denominator)
            denominator += ADAM_EPSILON
            np.multiply(lr_t, m, out=scratch)
            value -= np.divide(scratch, denominator, out=scratch)

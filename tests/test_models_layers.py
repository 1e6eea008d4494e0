"""Numerical-gradient and shape tests for the numpy layer zoo.

Every layer's analytic backward pass is validated against central
finite differences — the canonical correctness test for a from-scratch
deep-learning substrate.
"""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.models import (
    Adam,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    MDNHead,
    ReLU,
)

EPS = 1e-5


def numerical_gradient(fn, array, eps=EPS):
    """Central-difference gradient of scalar ``fn`` wrt ``array``."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + eps
        plus = fn()
        array[idx] = original - eps
        minus = fn()
        array[idx] = original
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


def check_layer_gradients(layer, x, seed=0):
    """Validate input and parameter gradients via finite differences."""
    rng = np.random.default_rng(seed)
    out = layer.forward(x, training=True)
    upstream = rng.normal(size=out.shape)

    def loss():
        return float(np.sum(layer.forward(x, training=False) * upstream))

    layer.zero_grads()
    layer.forward(x, training=True)
    grad_x = layer.backward(upstream)

    num_grad_x = numerical_gradient(loss, x)
    assert np.allclose(grad_x, num_grad_x, atol=1e-4), "input gradient"

    for name, param in layer.params.items():
        num_grad = numerical_gradient(loss, param)
        assert np.allclose(layer.grads[name], num_grad, atol=1e-4), \
            f"parameter gradient {name}"


class TestDense:
    def test_forward_shape(self):
        layer = Dense(4, 3, seed=1)
        out = layer.forward(np.ones((2, 4)))
        assert out.shape == (2, 3)

    def test_gradients(self):
        rng = np.random.default_rng(0)
        check_layer_gradients(Dense(5, 3, seed=1), rng.normal(size=(4, 5)))

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            Dense(4, 3).forward(np.ones((2, 5)))


class TestReLU:
    def test_forward(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        assert out.tolist() == [[0.0, 2.0]]

    def test_gradients(self):
        rng = np.random.default_rng(1)
        # Keep activations away from the kink for finite differences.
        x = rng.normal(size=(4, 6))
        x[np.abs(x) < 0.05] = 0.2
        check_layer_gradients(ReLU(), x)


class TestFlatten:
    def test_roundtrip(self):
        layer = Flatten()
        x = np.arange(24.0).reshape(2, 3, 2, 2)
        out = layer.forward(x, training=True)
        assert out.shape == (2, 12)
        back = layer.backward(out)
        assert back.shape == x.shape


class TestConv2D:
    def test_same_padding_shape(self):
        layer = Conv2D(1, 4, 3, seed=1)
        out = layer.forward(np.ones((2, 1, 8, 8)))
        assert out.shape == (2, 4, 8, 8)

    def test_gradients(self):
        rng = np.random.default_rng(2)
        check_layer_gradients(
            Conv2D(2, 3, 3, seed=3), rng.normal(size=(2, 2, 5, 5)))

    def test_known_kernel(self):
        """A 1x1 identity kernel must reproduce the input."""
        layer = Conv2D(1, 1, 1, seed=0)
        layer.params["W"][...] = 1.0
        layer.params["b"][...] = 0.0
        x = np.random.default_rng(0).normal(size=(1, 1, 4, 4))
        out = layer.forward(x)
        assert np.allclose(out, x)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            Conv2D(1, 4).forward(np.ones((2, 3, 8, 8)))


class TestMaxPool2D:
    def test_forward_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = MaxPool2D(2).forward(x)
        assert out[0, 0].tolist() == [[5.0, 7.0], [13.0, 15.0]]

    def test_gradients(self):
        rng = np.random.default_rng(3)
        # Distinct values avoid ties in argmax for finite differences.
        x = rng.permutation(64).astype(float).reshape(1, 1, 8, 8) / 10.0
        check_layer_gradients(MaxPool2D(2), x)

    def test_ragged_edge_truncated(self):
        x = np.ones((1, 1, 5, 5))
        out = MaxPool2D(2).forward(x)
        assert out.shape == (1, 1, 2, 2)


class TestMDNHead:
    def test_mixture_shapes_and_validity(self):
        head = MDNHead(6, 3, seed=1)
        raw = head.forward(np.random.default_rng(0).normal(size=(5, 6)))
        mix = head.mixture(raw)
        assert mix.pi.shape == (5, 3)
        assert np.allclose(mix.pi.sum(axis=1), 1.0)
        assert (mix.sigma > 0).all()

    def test_gradients(self):
        rng = np.random.default_rng(4)
        head = MDNHead(4, 2, seed=2)
        x = rng.normal(size=(6, 4))
        y = rng.normal(size=6)

        def loss():
            raw = head.forward(x, training=False)
            return head.nll(raw, y)

        head.zero_grads()
        head.forward(x, training=True)
        _, grad_x = head.loss_and_backward(y)
        num_grad_x = numerical_gradient(loss, x)
        assert np.allclose(grad_x, num_grad_x, atol=1e-4)
        for name, param in head.params.items():
            num_grad = numerical_gradient(loss, param)
            assert np.allclose(head.grads[name], num_grad, atol=1e-4), name

    def test_nll_decreases_under_sgd(self):
        """Plain gradient steps (learning rate 0.05) on the head's own
        gradients descend its NLL."""
        rng = np.random.default_rng(5)
        head = MDNHead(3, 2, seed=3)
        x = rng.normal(size=(64, 3))
        y = x @ np.array([1.0, -0.5, 0.2])
        losses = []
        for _ in range(60):
            head.zero_grads()
            head.forward(x, training=True)
            loss, _ = head.loss_and_backward(y)
            losses.append(loss)
            for name, value in head.params.items():
                value -= 0.05 * head.grads[name]
        assert losses[-1] < losses[0] - 0.3


class TestOptimizers:
    def _quadratic_model(self):
        layer = Dense(1, 1, seed=0)
        layer.params["W"][...] = 5.0
        layer.params["b"][...] = 0.0

        class _Model:
            @property
            def parameters(self):
                for name, value in layer.params.items():
                    yield layer, name, value

        return layer, _Model()

    def _minimize(self, optimizer, steps=200):
        layer, model = self._quadratic_model()
        for _ in range(steps):
            # d(w^2)/dw = 2w on the weight; ignore bias.
            layer.grads["W"][...] = 2.0 * layer.params["W"]
            layer.grads["b"][...] = 0.0
            optimizer.step(model)
        return float(layer.params["W"][0, 0])

    def test_adam_converges(self):
        assert abs(self._minimize(Adam(0.3))) < 1e-2

    def test_validation(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            Adam(-1.0)
        with pytest.raises(ConfigurationError):
            Adam(0.0)

"""Tests for the NumPy layers, including numerical gradient checks."""

import numpy as np
import pytest

from repro.fl.layers import (
    Conv2D,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    SoftmaxCrossEntropy,
    Tanh,
)


def numerical_gradient(f, x, eps=1e-6):
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = f()
        flat[i] = original - eps
        minus = f()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(4, 3, rng=rng)
        out = layer.forward(rng.normal(size=(5, 4)))
        assert out.shape == (5, 3)

    def test_forward_matches_matmul(self, rng):
        layer = Linear(4, 2, rng=rng)
        x = rng.normal(size=(3, 4))
        expected = x @ layer.params["w"] + layer.params["b"]
        assert np.allclose(layer.forward(x), expected)

    def test_backward_input_gradient_matches_numerical(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(2, 4))
        loss = SoftmaxCrossEntropy()
        labels = np.array([0, 2])

        def compute():
            return loss.forward(layer.forward(x), labels)

        compute()
        grad_analytic = layer.backward(loss.backward())
        grad_numeric = numerical_gradient(compute, x)
        assert np.allclose(grad_analytic, grad_numeric, atol=1e-5)

    def test_backward_weight_gradient_matches_numerical(self, rng):
        layer = Linear(3, 3, rng=rng)
        x = rng.normal(size=(4, 3))
        loss = SoftmaxCrossEntropy()
        labels = np.array([0, 1, 2, 1])

        def compute():
            return loss.forward(layer.forward(x), labels)

        compute()
        layer.backward(loss.backward())
        grad_numeric = numerical_gradient(compute, layer.params["w"])
        assert np.allclose(layer.grads["w"], grad_numeric, atol=1e-5)
        grad_numeric_b = numerical_gradient(compute, layer.params["b"])
        assert np.allclose(layer.grads["b"], grad_numeric_b, atol=1e-5)

    def test_shape_validation(self, rng):
        layer = Linear(4, 3, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(5, 7)))
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_backward_before_forward(self, rng):
        layer = Linear(4, 3, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((2, 3)))


class TestActivations:
    def test_relu_masks_negative(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 2.0, 0.0]]))
        assert np.allclose(out, [[0.0, 2.0, 0.0]])
        grad = layer.backward(np.ones((1, 3)))
        assert np.allclose(grad, [[0.0, 1.0, 0.0]])

    def test_tanh_gradient(self):
        layer = Tanh()
        x = np.array([[0.3, -0.7]])
        layer.forward(x)
        grad = layer.backward(np.ones((1, 2)))
        assert np.allclose(grad, 1.0 - np.tanh(x) ** 2)

    def test_flatten_round_trip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 4))
        out = layer.forward(x)
        assert out.shape == (2, 48)
        back = layer.backward(out)
        assert back.shape == x.shape


class TestConvAndPool:
    def test_conv_output_shape(self, rng):
        layer = Conv2D(3, 6, kernel_size=5, rng=rng)
        out = layer.forward(rng.normal(size=(2, 3, 12, 12)))
        assert out.shape == (2, 6, 8, 8)

    def test_conv_gradient_matches_numerical(self, rng):
        layer = Conv2D(1, 2, kernel_size=3, rng=rng)
        x = rng.normal(size=(1, 1, 5, 5))
        loss = SoftmaxCrossEntropy()
        labels = np.array([1])
        flat = Flatten()

        def compute():
            return loss.forward(flat.forward(layer.forward(x))[:, :10], labels)

        compute()
        grad_logits = loss.backward()
        padded = np.zeros((1, flat.forward(layer.forward(x)).shape[1]))
        padded[:, :10] = grad_logits
        grad_analytic = layer.backward(flat.backward(padded))
        grad_numeric = numerical_gradient(compute, x)
        assert np.allclose(grad_analytic, grad_numeric, atol=1e-4)

    def test_conv_rejects_wrong_channels(self, rng):
        layer = Conv2D(3, 4, kernel_size=3, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(1, 1, 8, 8)))

    def test_maxpool_selects_maximum(self):
        layer = MaxPool2D(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        assert np.allclose(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_maxpool_backward_routes_to_argmax(self):
        layer = MaxPool2D(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        layer.forward(x)
        grad = layer.backward(np.ones((1, 1, 2, 2)))
        assert grad.sum() == pytest.approx(4.0)
        assert grad[0, 0, 1, 1] == pytest.approx(1.0)
        assert grad[0, 0, 0, 0] == pytest.approx(0.0)

    def test_maxpool_requires_divisible_dims(self):
        layer = MaxPool2D(2)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 1, 5, 5)))


class TestSoftmaxCrossEntropy:
    def test_loss_of_uniform_logits(self):
        loss = SoftmaxCrossEntropy()
        value = loss.forward(np.zeros((4, 10)), np.array([0, 1, 2, 3]))
        assert value == pytest.approx(np.log(10.0))

    def test_perfect_prediction_has_low_loss(self):
        loss = SoftmaxCrossEntropy()
        logits = np.full((2, 3), -20.0)
        logits[0, 1] = 20.0
        logits[1, 2] = 20.0
        assert loss.forward(logits, np.array([1, 2])) < 1e-6

    def test_gradient_matches_numerical(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(3, 5))
        labels = np.array([0, 3, 4])

        def compute():
            return loss.forward(logits, labels)

        compute()
        grad_numeric = numerical_gradient(compute, logits)
        assert np.allclose(loss.backward(), grad_numeric, atol=1e-6)

    def test_shape_validation(self):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(ValueError):
            loss.forward(np.zeros((2, 3, 1)), np.array([0, 1]))
        with pytest.raises(ValueError):
            loss.forward(np.zeros((2, 3)), np.array([0]))

    def test_predictions(self):
        logits = np.array([[0.1, 2.0, -1.0], [3.0, 0.0, 0.0]])
        assert SoftmaxCrossEntropy.predictions(logits).tolist() == [1, 0]

"""Neural-network layers with explicit forward and backward passes.

The on-device training substrate of the paper is a Java deep-learning
framework (DL4J) running LeNet-5.  Here the layers are implemented directly
on NumPy so the whole stack is dependency-free and deterministic.  Every
layer follows the same protocol:

* ``forward(x)`` caches whatever the backward pass needs and returns the
  activations,
* ``backward(grad_out)`` returns the gradient with respect to the input and
  writes parameter gradients *into* the arrays of ``layer.grads`` (aligned
  with ``layer.params``; every entry is overwritten, never accumulated).
  Inside a :class:`~repro.fl.model.Sequential` both dicts hold views of the
  model's flat vectors, so a layer never rebinds an entry after
  construction,
* ``backward_params(grad_out)`` is the same without the input gradient —
  what the first layer of a stack needs, since nothing consumes the
  gradient with respect to the data.

Shapes follow the ``(batch, ...)`` convention; convolutional layers use
``(batch, channels, height, width)``.  ``Linear``, ``ReLU``, ``Tanh`` and
:class:`SoftmaxCrossEntropy` also take an optional leading *block* axis —
``(k, batch, features)`` activations against ``(k, in, out)`` weight and
``(k, 1, out)`` bias views, ``k`` networks side by side (see
:meth:`repro.fl.model.Sequential.stacked`; a block of one keeps the 2-D
form).  The block form is the same code: products go through
``swapaxes(-1, -2)``, bias sums over ``axis=-2`` and the loss reduces over
``axis=-1``, so each block slice runs the very ufunc and BLAS calls of the
2-D form on the same per-slice strides.  No layer keeps a random state or a
training / evaluation switch: a forward pass is a function of the
parameters and the input alone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "Layer",
    "Linear",
    "ReLU",
    "Tanh",
    "Flatten",
    "Conv2D",
    "MaxPool2D",
    "SoftmaxCrossEntropy",
]


class Layer:
    """Base class for all layers.

    Subclasses with parameters populate ``params``/``grads`` with matching
    keys; parameter-free layers leave them empty.
    """

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output for input ``x``."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_out`` and return the input gradient."""
        raise NotImplementedError

    def backward_params(self, grad_out: np.ndarray) -> None:
        """Write the parameter gradients, without the input gradient.

        The default runs :meth:`backward` and drops its result; a layer whose
        input gradient costs a product of its own overrides this.
        """
        self.backward(grad_out)


class Linear(Layer):
    """Fully-connected layer ``y = x W + b`` (optionally one per block slice)."""

    def __init__(self, in_features: int, out_features: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / in_features)
        self.params["w"] = rng.normal(0.0, scale, size=(in_features, out_features))
        self.params["b"] = np.zeros(out_features)
        self.grads = {key: np.zeros_like(value) for key, value in self.params.items()}
        self._cache_x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        w = self.params["w"]
        if x.ndim != w.ndim or x.shape[-1] != w.shape[-2]:
            raise ValueError(
                f"Linear expected input of shape {w.shape[:-2]} + (batch, {w.shape[-2]}), "
                f"got {x.shape}"
            )
        self._cache_x = x
        out = x @ w
        out += self.params["b"]
        return out

    def backward_params(self, grad_out: np.ndarray) -> None:
        if self._cache_x is None:
            raise RuntimeError("backward called before forward")
        np.matmul(self._cache_x.swapaxes(-1, -2), grad_out, out=self.grads["w"])
        grad_out.sum(axis=-2, out=self.grads["b"])

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.backward_params(grad_out)
        return grad_out @ self.params["w"].swapaxes(-1, -2)


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask


class Tanh(Layer):
    """Hyperbolic-tangent activation (LeNet's classic nonlinearity)."""

    def __init__(self) -> None:
        super().__init__()
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._out**2)


class Flatten(Layer):
    """Flatten ``(batch, ...)`` inputs to ``(batch, features)``."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._shape)


def _im2col(x: np.ndarray, kernel: int, stride: int) -> Tuple[np.ndarray, int, int]:
    """Rearrange image patches into columns for convolution-as-matmul."""
    batch, channels, height, width = x.shape
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    cols = np.empty((batch, channels, kernel, kernel, out_h, out_w), dtype=x.dtype)
    for i in range(kernel):
        i_max = i + stride * out_h
        for j in range(kernel):
            j_max = j + stride * out_w
            cols[:, :, i, j, :, :] = x[:, :, i:i_max:stride, j:j_max:stride]
    cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(batch * out_h * out_w, -1)
    return cols, out_h, out_w


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Inverse of :func:`_im2col`, accumulating overlapping patches."""
    batch, channels, height, width = x_shape
    cols = cols.reshape(batch, out_h, out_w, channels, kernel, kernel).transpose(
        0, 3, 4, 5, 1, 2
    )
    x = np.zeros(x_shape, dtype=cols.dtype)
    for i in range(kernel):
        i_max = i + stride * out_h
        for j in range(kernel):
            j_max = j + stride * out_w
            x[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    return x


class Conv2D(Layer):
    """2-D convolution (valid padding) implemented with im2col."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if min(in_channels, out_channels, kernel_size, stride) <= 0:
            raise ValueError("conv dimensions must be positive")
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kernel_size * kernel_size
        scale = np.sqrt(2.0 / fan_in)
        self.kernel_size = kernel_size
        self.stride = stride
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.params["w"] = rng.normal(
            0.0, scale, size=(out_channels, in_channels, kernel_size, kernel_size)
        )
        self.params["b"] = np.zeros(out_channels)
        self.grads = {key: np.zeros_like(value) for key, value in self.params.items()}
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, ...], int, int]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expected (batch, {self.in_channels}, H, W), got {x.shape}"
            )
        cols, out_h, out_w = _im2col(x, self.kernel_size, self.stride)
        w_col = self.params["w"].reshape(self.out_channels, -1)
        out = cols @ w_col.T + self.params["b"]
        out = out.reshape(x.shape[0], out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        self._cache = (cols, x.shape, out_h, out_w)
        return out

    def _write_grads(self, grad_out: np.ndarray) -> np.ndarray:
        """Write the parameter gradients; returns ``grad_out`` as patch rows."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        np.matmul(
            grad_flat.T, self._cache[0], out=self.grads["w"].reshape(self.out_channels, -1)
        )
        grad_flat.sum(axis=0, out=self.grads["b"])
        return grad_flat

    def backward_params(self, grad_out: np.ndarray) -> None:
        self._write_grads(grad_out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_flat = self._write_grads(grad_out)
        _, x_shape, out_h, out_w = self._cache
        grad_cols = grad_flat @ self.params["w"].reshape(self.out_channels, -1)
        return _col2im(grad_cols, x_shape, self.kernel_size, self.stride, out_h, out_w)


class MaxPool2D(Layer):
    """Non-overlapping 2-D max pooling."""

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.pool_size = pool_size
        self._cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, channels, height, width = x.shape
        p = self.pool_size
        if height % p or width % p:
            raise ValueError("input spatial dims must be divisible by pool_size")
        reshaped = x.reshape(batch, channels, height // p, p, width // p, p)
        out = reshaped.max(axis=(3, 5))
        mask = reshaped == out[:, :, :, None, :, None]
        self._cache = (mask, x.shape)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        mask, x_shape = self._cache
        p = self.pool_size
        grad = mask * grad_out[:, :, :, None, :, None]
        return grad.reshape(x_shape)


class SoftmaxCrossEntropy:
    """Combined softmax activation and cross-entropy loss.

    Not a :class:`Layer` — it terminates the network: ``forward`` returns the
    scalar loss (one per slice for ``(k, batch, classes)`` block logits) and
    ``backward`` returns the gradient of the loss with respect to the logits.
    """

    def __init__(self) -> None:
        self._probs: Optional[np.ndarray] = None
        self._labels: Optional[np.ndarray] = None
        #: The index of every label's row per label shape seen (a round sees
        #: two at most): ``(arange(batch),)``, or ``(arange(k)[:, None],
        #: arange(batch))`` for a block.
        self._rows: Dict[Tuple[int, ...], Tuple[np.ndarray, ...]] = {}

    def _label_index(self, labels: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Fancy index of each sample's labelled class in the probabilities."""
        rows = self._rows.get(labels.shape)
        if rows is None:
            if labels.ndim == 1:
                rows = (np.arange(labels.shape[0]),)
            else:
                rows = (np.arange(labels.shape[0])[:, None], np.arange(labels.shape[1]))
            self._rows[labels.shape] = rows
        return rows + (labels,)

    def forward(self, logits: np.ndarray, labels: np.ndarray):
        """Mean cross-entropy of ``logits`` against integer ``labels``: a
        ``float``, or one per slice of a block (an array)."""
        if logits.ndim not in (2, 3):
            raise ValueError("logits must have shape (batch, classes) or (k, batch, classes)")
        if labels.shape != logits.shape[:-1]:
            raise ValueError("labels and logits must agree on batch size")
        batch = logits.shape[-2]
        probs = logits - logits.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        self._probs = probs
        self._labels = labels
        # The mean of the clipped logs, spelled as the ufunc calls
        # ``np.mean(np.log(np.clip(correct, 1e-12, None)))`` dispatches to.
        logs = np.maximum(probs[self._label_index(labels)], 1e-12)
        np.log(logs, out=logs)
        loss = -(np.add.reduce(logs, axis=-1) / batch)
        return float(loss) if logits.ndim == 2 else loss

    def backward(self) -> np.ndarray:
        """Gradient of the mean loss with respect to the logits."""
        if self._probs is None or self._labels is None:
            raise RuntimeError("backward called before forward")
        grad = self._probs.copy()  # ``_probs`` stays intact: callable twice
        grad[self._label_index(self._labels)] -= 1.0
        grad /= self._probs.shape[-2]
        return grad


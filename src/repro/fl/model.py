"""Sequential model container over one flat parameter vector.

The schedulers and staleness metrics of the paper work on the *parameter
vector* of the global model (norm differences, averaging, momentum vectors),
so the container keeps the whole network in a single contiguous ``numpy``
vector (and its gradients in a second one); every layer tensor is a
reshaped view of its segment.  :meth:`Sequential.get_flat_params` /
:meth:`Sequential.set_flat_params` are therefore one copy each, and the
optimizer updates the vector in place.  A ``Linear`` / ``ReLU`` / ``Tanh``
stack also has a stacked form (:meth:`Sequential.stacked`): ``k`` copies as
the rows of ``(k, P)`` blocks, the form every local round of the client
plane runs in (a block of one is the model itself).

Two builders match the paper's setup:

* :func:`build_lenet5` — the LeNet-5 architecture trained on the devices
  (Section VI), for 3x32x32 CIFAR-10-shaped inputs; it is trained through
  :class:`Sequential` directly (``examples/lenet_on_device_training.py``).
* :func:`build_mlp` — a small multi-layer perceptron on flattened features,
  the model of every simulation because it is 1-2 orders of magnitude
  faster while exercising exactly the same optimizer/staleness machinery.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.layers import (
    Conv2D,
    Flatten,
    Layer,
    Linear,
    MaxPool2D,
    ReLU,
    SoftmaxCrossEntropy,
    Tanh,
)

__all__ = ["Sequential", "build_mlp", "build_lenet5"]


class Sequential:
    """A feed-forward stack of layers with a softmax cross-entropy head."""

    #: The ``(rows, P)`` momentum block of a :meth:`stacked` copy of several
    #: rows; ``None`` on a network of its own (and so on a block of one).
    flat_momentum: Optional[np.ndarray] = None

    def __init__(self, layers: Sequence[Layer]) -> None:
        if not layers:
            raise ValueError("a model needs at least one layer")
        self.layers: List[Layer] = list(layers)
        self.loss_fn = SoftmaxCrossEntropy()
        #: :meth:`stacked` workspaces by row count, and the ``(3, rows, P)``
        #: memory they view (never pickled).
        self._stacked: Dict[int, "Sequential"] = {}
        self._block_memory: Optional[np.ndarray] = None
        self._bind()

    def _bind(self) -> None:
        """Gather every layer tensor into ``flat_params`` / ``flat_grads`` (the
        live vectors, :meth:`parameter_items` order) and leave views behind, so
        layers and the optimizer read and write the same memory."""
        items = list(self.parameter_items())
        empty = [np.zeros(0)]  # a parameter-free stack still has (empty) vectors
        self.flat_params = np.concatenate(empty + [value.ravel() for _, _, value in items])
        grads = [layer.grads[name].ravel() for layer, name, _ in items]
        self.flat_grads = np.concatenate(empty + grads)
        offset = 0
        for layer, name, value in items:
            stop = offset + value.size
            layer.params[name] = self.flat_params[offset:stop].reshape(value.shape)
            layer.grads[name] = self.flat_grads[offset:stop].reshape(value.shape)
            offset = stop

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_stacked": {}, "_block_memory": None}

    def __setstate__(self, state: dict) -> None:
        # pickle / deepcopy restore every view as an independent array.
        self.__dict__.update(state)
        self._bind()

    # -- forward / backward ------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the network and return the logits."""
        out = x
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def loss(self, x: np.ndarray, labels: np.ndarray) -> float:
        """Forward pass plus mean cross-entropy loss."""
        logits = self.forward(x)
        return self.loss_fn.forward(logits, labels)

    def backward(self) -> None:
        """Back-propagate the most recent loss through every layer.

        The first layer writes its parameter gradients only: nothing consumes
        the gradient with respect to the data.
        """
        grad = self.loss_fn.backward()
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        self.layers[0].backward_params(grad)

    def train_step_gradients(self, x: np.ndarray, labels: np.ndarray) -> float:
        """Compute the loss and overwrite every layer's gradients."""
        loss = self.loss(x, labels)
        self.backward()
        return loss

    # -- parameter access ----------------------------------------------------------

    def parameter_items(self) -> Iterable[Tuple[Layer, str, np.ndarray]]:
        """Iterate over ``(layer, name, array)`` for every parameter tensor."""
        for layer in self.layers:
            for name, value in layer.params.items():
                yield layer, name, value

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return self.flat_params.size

    def get_flat_params(self) -> np.ndarray:
        """Copy all parameters into a single flat vector."""
        return self.flat_params.copy()

    def set_flat_params(self, flat: np.ndarray) -> None:
        """Load parameters from a flat vector produced by ``get_flat_params``."""
        if flat.shape != self.flat_params.shape:
            raise ValueError(
                f"expected a flat vector of length {self.flat_params.size}, got {flat.shape}"
            )
        np.copyto(self.flat_params, flat)

    # -- stacked copies --------------------------------------------------------------

    def stacked(self, rows: int) -> "Sequential":
        """A workspace of ``rows`` copies of this network side by side.

        Its ``flat_params`` / ``flat_grads`` are ``(rows, P)`` blocks, and
        ``flat_momentum`` a third one for the optimizer (all three left
        as the last use left them: a round loads parameters and momentum and
        every backward pass writes every gradient).  Each layer tensor is a
        ``(rows, *shape)`` view of its column segment — a bias parameter
        ``(rows, 1, out)``, so it broadcasts over the batch the way the 1-D
        bias does — and a forward / backward pass over ``(rows, batch,
        features)`` inputs runs every product once per row on that row's
        own ``(in, out)`` slices.  Only ``Linear``, ``ReLU`` and ``Tanh``
        stacks have a stacked form.  A block of one is this network itself:
        its own layers and 1-D vectors, and no ``flat_momentum`` (a single
        momentum vector is stepped where it lives,
        :meth:`~repro.fl.optimizer.MomentumSGD.load_rows`), so it makes the
        very calls of the unstacked network with no second copy of
        anything.  Callers tell the two forms apart by ``flat_momentum``
        alone.

        Like the model itself, a stacked copy is a workspace: this model
        keeps one per row count, over one memory grown to the most rows
        asked for, and the next call with as many rows reuses it (a fresh
        quarter-megabyte block per round would cost more in page faults
        than the stacking saves).
        """
        if rows == 1:
            return self
        block = self._stacked.get(rows)
        if block is not None:
            return block
        memory = self._block_memory
        if memory is None or memory.shape[1] < rows:
            memory = self._block_memory = np.empty((3, rows, self.flat_params.size))
            self._stacked.clear()  # their views are of the old memory
        block = Sequential.__new__(Sequential)  # not ``copy``: that would re-bind our layers
        block.loss_fn = SoftmaxCrossEntropy()
        block.layers = [copy.copy(layer) for layer in self.layers]
        block.flat_params, block.flat_grads, block.flat_momentum = memory[:, :rows]
        offset = 0
        for source, layer in zip(self.layers, block.layers):
            layer.params, layer.grads = {}, {}
            for name, value in source.params.items():
                stop = offset + value.size
                shape = (rows,) + value.shape
                broadcast = (rows,) + (1,) * (2 - value.ndim) + value.shape
                layer.params[name] = block.flat_params[:, offset:stop].reshape(broadcast)
                layer.grads[name] = block.flat_grads[:, offset:stop].reshape(shape)
                offset = stop
        self._stacked[rows] = block
        return block


def build_mlp(
    input_dim: int = 64,
    hidden_dims: Sequence[int] = (128, 64),
    num_classes: int = 10,
    seed: int = 0,
) -> Sequential:
    """Build a small ReLU MLP classifier.

    This is the default simulation model: it exercises the same federated
    machinery (momentum SGD, staleness, aggregation) as LeNet-5 but runs fast
    enough for hours-long slotted simulations on a laptop.
    """
    if input_dim <= 0 or num_classes <= 0:
        raise ValueError("input_dim and num_classes must be positive")
    rng = np.random.default_rng(seed)
    layers: List[Layer] = []
    prev = input_dim
    for width in hidden_dims:
        layers.append(Linear(prev, width, rng=rng))
        layers.append(ReLU())
        prev = width
    layers.append(Linear(prev, num_classes, rng=rng))
    return Sequential(layers)


def build_lenet5(
    in_channels: int = 3,
    image_size: int = 32,
    num_classes: int = 10,
    seed: int = 0,
) -> Sequential:
    """Build the LeNet-5 architecture used on the devices (Section VI).

    Conv(6, 5x5) - Tanh - MaxPool(2) - Conv(16, 5x5) - Tanh - MaxPool(2) -
    Flatten - Linear(120) - Tanh - Linear(84) - Tanh - Linear(num_classes).
    """
    if image_size < 12:
        raise ValueError("image_size too small for the LeNet-5 stack")
    rng = np.random.default_rng(seed)
    after_conv1 = image_size - 4
    after_pool1 = after_conv1 // 2
    after_conv2 = after_pool1 - 4
    after_pool2 = after_conv2 // 2
    flat_dim = 16 * after_pool2 * after_pool2
    layers: List[Layer] = [
        Conv2D(in_channels, 6, kernel_size=5, rng=rng),
        Tanh(),
        MaxPool2D(2),
        Conv2D(6, 16, kernel_size=5, rng=rng),
        Tanh(),
        MaxPool2D(2),
        Flatten(),
        Linear(flat_dim, 120, rng=rng),
        Tanh(),
        Linear(120, 84, rng=rng),
        Tanh(),
        Linear(84, num_classes, rng=rng),
    ]
    return Sequential(layers)

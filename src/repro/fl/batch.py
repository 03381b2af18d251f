"""Batched multi-client training backend: one stacked tensor program.

The serial FL substrate executes every client's local round as its own
NumPy program: `FLClient.local_train` loops mini-batches through a
:class:`~repro.fl.model.Sequential` workspace.  The engine invokes those
rounds one client at a time, so at these model sizes the convergence
experiments spend much of their wall-clock in Python layer dispatch rather
than in BLAS.

:class:`BatchTrainer` removes the per-client axis from the interpreter and
puts it into the tensors instead.  All clients whose local rounds complete
in the same slot are executed as *one* stacked tensor program:

* every layer op carries a leading client axis — ``Linear`` becomes a
  stacked ``(clients, batch, in) @ (clients, in, out)`` matmul, ``Conv2D`` /
  ``MaxPool2D`` fold the client axis into the im2col batch, activations and
  dropout vectorize elementwise (dropout draws from *per-client RNG
  streams*, consuming each client's generator exactly as the serial path
  would);
* parameters, momentum and gradients live in three contiguous
  ``(clients, params)`` matrices.  Layers operate on zero-copy
  ``as_strided`` views of the parameter matrix and write their gradients
  straight into same-shaped views of the gradient matrix (``out=``), so a
  full momentum-SGD step is three fused array passes over the flat
  matrices — no per-layer temporaries, no flatten/unflatten round-trip;
* clients are *grouped by shard geometry* (mini-batch count) so every step
  of a group has congruent shapes, and ragged tails — clients whose final
  mini-batch is smaller than ``batch_size`` — are padded and masked: the
  loss averages over each client's true sample count and padded rows carry
  zero gradient, so they contribute nothing to any parameter update.

Equivalence contract: for every client the batched round produces the same
updated parameters, train loss, momentum state and RNG trajectory as
``local_train``, to tight numerical tolerance (stacked BLAS calls may round
reductions differently than their 2-D slices on some platforms; on typical
x86 NumPy builds the results are bitwise identical for non-ragged groups).
``tests/test_batch_training.py`` holds the trainer to that contract across
policies, partitions and ragged shard sizes, including slot-for-slot
decision-trace parity of full simulation runs.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.fl.client import FLClient, LocalUpdate
from repro.fl.layers import (
    Conv2D,
    Dropout,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    Tanh,
    _col2im,
    _im2col,
)
from repro.fl.model import Sequential

__all__ = ["TrainRequest", "BatchTrainer", "TrainAheadScheduler"]


@dataclass(frozen=True)
class TrainRequest:
    """One client's pending local round inside a batch.

    Attributes:
        user_id: index of the client in the trainer's client list.
        base_params: the downloaded global model the round starts from.
        base_version: parameter-server version of ``base_params``.
    """

    user_id: int
    base_params: np.ndarray
    base_version: int


def _segment_view(matrix: np.ndarray, offset: int, shape: Tuple[int, ...]) -> np.ndarray:
    """A writable ``(clients,) + shape`` view of one flat-layout segment.

    ``matrix`` is a C-contiguous ``(clients, params)`` matrix; the segment
    of every row starting at ``offset`` is exposed with row-major ``shape``
    strides, so layers read parameters from — and write gradients into —
    the flat matrices without any copy or reshape.
    """
    itemsize = matrix.itemsize
    inner = []
    stride = itemsize
    for dim in reversed(shape):
        inner.append(stride)
        stride *= dim
    strides = (matrix.strides[0],) + tuple(reversed(inner))
    return as_strided(matrix[:, offset:], shape=(matrix.shape[0],) + shape, strides=strides)


# ---------------------------------------------------------------------------
# Batched layer ops (leading client axis on every tensor)
# ---------------------------------------------------------------------------


class _BatchedLayer:
    """One layer of the stacked program; parameter-free unless overridden."""

    #: aligned with the serial layer's ``params`` dict; empty when stateless.
    param_names: Tuple[str, ...] = ()

    def bind(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray]) -> None:
        """Attach stacked parameter views and gradient output views."""

    def forward(self, x: np.ndarray, counts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward_first(self, grad_out: np.ndarray) -> Optional[np.ndarray]:
        """Backward for the program's first layer: the gradient with respect
        to the network *input* has no consumer, so parameterized layers
        override this to skip computing it."""
        return self.backward(grad_out)


class _BatchedLinear(_BatchedLayer):
    """Stacked linear layer computed as per-client 2-D BLAS calls.

    NumPy's 3-D ``matmul`` routes stacked operands through its generic
    gufunc inner loop rather than one BLAS ``dgemm`` per slice, which is
    1.5–2.5x slower at these shapes — so the client axis is looped in
    Python and each slice (a contiguous view of the flat parameter matrix)
    goes straight to BLAS, writing into per-layer buffers that are reused
    across every mini-batch step of the round.
    """

    param_names = ("w", "b")

    def bind(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray]) -> None:
        self.w = params["w"]  # (C, in, out)
        self.b = params["b"]  # (C, out)
        self.gw = grads["w"]
        self.gb = grads["b"]
        self._out: Optional[np.ndarray] = None
        self._grad_in: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, counts: np.ndarray) -> np.ndarray:
        self._x = x
        clients, batch, _ = x.shape
        out_features = self.w.shape[2]
        if self._out is None or self._out.shape != (clients, batch, out_features):
            self._out = np.empty((clients, batch, out_features))
            self._grad_in = np.empty_like(x)
        out = self._out
        w = self.w
        for c in range(clients):
            np.matmul(x[c], w[c], out=out[c])
        out += self.b[:, None, :]
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._x
        w = self.w
        gw = self.gw
        grad_in = self._grad_in
        for c in range(x.shape[0]):
            np.matmul(x[c].T, grad_out[c], out=gw[c])
            np.matmul(grad_out[c], w[c].T, out=grad_in[c])
        np.sum(grad_out, axis=1, out=self.gb)
        return grad_in

    def backward_first(self, grad_out: np.ndarray) -> Optional[np.ndarray]:
        x = self._x
        gw = self.gw
        for c in range(x.shape[0]):
            np.matmul(x[c].T, grad_out[c], out=gw[c])
        np.sum(grad_out, axis=1, out=self.gb)
        return None


class _BatchedReLU(_BatchedLayer):
    def forward(self, x: np.ndarray, counts: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._mask


class _BatchedTanh(_BatchedLayer):
    def forward(self, x: np.ndarray, counts: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * (1.0 - self._out**2)


class _BatchedFlatten(_BatchedLayer):
    def forward(self, x: np.ndarray, counts: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(self._shape)


class _BatchedDropout(_BatchedLayer):
    """Inverted dropout with one independent RNG stream per client.

    Each client's mask rows are drawn from *its own* generator with exactly
    the shapes the serial path would request (the true mini-batch size, not
    the padded one), so a client's RNG trajectory is identical whether its
    round ran serially or batched.  Padded rows get a zero mask, which also
    zeroes their activations — harmless, since their loss gradient is
    masked to zero anyway.
    """

    def __init__(self, rate: float, rngs: Sequence[np.random.Generator]) -> None:
        self.rate = rate
        self.rngs = list(rngs)

    def forward(self, x: np.ndarray, counts: np.ndarray) -> np.ndarray:
        if self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        mask = np.zeros_like(x)
        for c, rng in enumerate(self.rngs):
            n = int(counts[c])
            mask[c, :n] = (rng.random((n,) + x.shape[2:]) < keep) / keep
        self._mask = mask
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class _BatchedConv2D(_BatchedLayer):
    param_names = ("w", "b")

    def __init__(self, kernel_size: int, stride: int, in_channels: int, out_channels: int) -> None:
        self.kernel_size = kernel_size
        self.stride = stride
        self.in_channels = in_channels
        self.out_channels = out_channels

    def bind(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray]) -> None:
        clients = params["w"].shape[0]
        columns = self.in_channels * self.kernel_size * self.kernel_size
        # Two same-memory views of the weight segment: the canonical
        # (C, oc, ic, k, k) layout and the (C, oc, ic*k*k) gemm layout.
        self.w = params["w"]
        self.w_col = params["w"].reshape(clients, self.out_channels, columns)
        self.gw_col = grads["w"].reshape(clients, self.out_channels, columns)
        self.b = params["b"]
        self.gb = grads["b"]

    def forward(self, x: np.ndarray, counts: np.ndarray) -> np.ndarray:
        clients, batch = x.shape[:2]
        folded = x.reshape((clients * batch,) + x.shape[2:])
        cols, out_h, out_w = _im2col(folded, self.kernel_size, self.stride)
        cols = cols.reshape(clients, batch * out_h * out_w, -1)
        out = np.matmul(cols, self.w_col.transpose(0, 2, 1)) + self.b[:, None, :]
        out = out.reshape(clients, batch, out_h, out_w, self.out_channels)
        self._cache = (cols, x.shape, out_h, out_w)
        return out.transpose(0, 1, 4, 2, 3)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        cols, x_shape, out_h, out_w = self._cache
        clients, batch = x_shape[:2]
        grad_flat = grad_out.transpose(0, 1, 3, 4, 2).reshape(
            clients, batch * out_h * out_w, self.out_channels
        )
        np.matmul(grad_flat.transpose(0, 2, 1), cols, out=self.gw_col)
        np.sum(grad_flat, axis=1, out=self.gb)
        grad_cols = np.matmul(grad_flat, self.w_col)
        folded_shape = (clients * batch,) + x_shape[2:]
        grad_x = _col2im(
            grad_cols.reshape(clients * batch * out_h * out_w, -1),
            folded_shape,
            self.kernel_size,
            self.stride,
            out_h,
            out_w,
        )
        return grad_x.reshape(x_shape)

    def backward_first(self, grad_out: np.ndarray) -> Optional[np.ndarray]:
        cols, x_shape, out_h, out_w = self._cache
        clients, batch = x_shape[:2]
        grad_flat = grad_out.transpose(0, 1, 3, 4, 2).reshape(
            clients, batch * out_h * out_w, self.out_channels
        )
        np.matmul(grad_flat.transpose(0, 2, 1), cols, out=self.gw_col)
        np.sum(grad_flat, axis=1, out=self.gb)
        return None


class _BatchedMaxPool2D(_BatchedLayer):
    def __init__(self, pool_size: int) -> None:
        self.pool_size = pool_size

    def forward(self, x: np.ndarray, counts: np.ndarray) -> np.ndarray:
        clients, batch, channels, height, width = x.shape
        p = self.pool_size
        reshaped = x.reshape(clients, batch, channels, height // p, p, width // p, p)
        out = reshaped.max(axis=(4, 6))
        self._mask = reshaped == out[:, :, :, :, None, :, None]
        self._shape = x.shape
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = self._mask * grad_out[:, :, :, :, None, :, None]
        return grad.reshape(self._shape)


class _BatchedSoftmaxCrossEntropy:
    """Stacked softmax cross-entropy with per-client valid-sample masking.

    ``counts[c]`` is client ``c``'s true mini-batch size; rows at or beyond
    it are padding.  The loss is the mean over the *valid* rows only (the
    same contiguous-slice ``np.mean`` the serial loss computes), and the
    logits gradient of padded rows is exactly zero, so padding cannot leak
    into any parameter gradient.
    """

    def forward(self, logits: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=2, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=2, keepdims=True)
        self._probs = probs
        self._labels = labels
        self._counts = counts
        batch = labels.shape[1]
        self._uniform = bool(counts.min() == batch)
        correct = np.take_along_axis(probs, labels[:, :, None], axis=2)[:, :, 0]
        log_correct = np.log(np.clip(correct, 1e-12, None))
        if self._uniform:
            # A last-axis mean reduces each contiguous row exactly like the
            # serial per-client np.mean, so one call covers the whole stack.
            return -log_correct.mean(axis=1)
        losses = np.empty(len(counts))
        for c, count in enumerate(counts):
            losses[c] = -np.mean(log_correct[c, : int(count)])
        return losses

    def backward(self) -> np.ndarray:
        clients, batch, _ = self._probs.shape
        grad = self._probs.copy()
        grad[
            np.arange(clients)[:, None], np.arange(batch)[None, :], self._labels
        ] -= 1.0
        if self._uniform:
            grad /= float(batch)
        else:
            grad /= self._counts[:, None, None].astype(np.float64)
            invalid = np.arange(batch)[None, :] >= self._counts[:, None]
            grad[invalid] = 0.0
        return grad


def _batched_layer_for(layer, position: int, clients: Sequence[FLClient]) -> _BatchedLayer:
    """The stacked counterpart of one serial layer."""
    if isinstance(layer, Linear):
        return _BatchedLinear()
    if isinstance(layer, ReLU):
        return _BatchedReLU()
    if isinstance(layer, Tanh):
        return _BatchedTanh()
    if isinstance(layer, Flatten):
        return _BatchedFlatten()
    if isinstance(layer, Dropout):
        rngs = []
        for client in clients:
            peer = client.model.layers[position]
            if not isinstance(peer, Dropout) or peer.rate != layer.rate:
                raise ValueError("clients disagree on dropout configuration")
            rngs.append(peer._rng)
        return _BatchedDropout(layer.rate, rngs)
    if isinstance(layer, Conv2D):
        return _BatchedConv2D(layer.kernel_size, layer.stride, layer.in_channels, layer.out_channels)
    if isinstance(layer, MaxPool2D):
        return _BatchedMaxPool2D(layer.pool_size)
    raise TypeError(f"no batched implementation for layer type {type(layer).__name__}")


# ---------------------------------------------------------------------------
# The trainer
# ---------------------------------------------------------------------------


class BatchTrainer:
    """Execute many clients' concurrent local rounds as one tensor program.

    Args:
        clients: the full client list, indexed by ``user_id`` (the engine's
            ``self.clients``).  All clients must share the same model
            architecture (layer types and parameter shapes); mini-batch size
            and local-epoch counts may differ — such clients simply land in
            different shard-geometry groups.
        threads: worker threads for fanning independent client blocks out
            across cores.  Blocks touch disjoint client state and NumPy
            releases the GIL inside BLAS and large ufunc loops, so the
            fan-out is deterministic and bit-identical to the sequential
            block order.  Defaults to ``min(4, available cores)``; on a
            single-core host the sequential path is used.
    """

    #: Below this client count the Eq. (1) update runs as per-client row
    #: loops (each ~P-sized row stays cache-resident right after its
    #: gradient gemms); above it, whole-matrix ops amortize dispatch better
    #: than cache locality pays.  Values identical either way (elementwise).
    _ROW_MOMENTUM_MAX_CLIENTS = 48

    #: A stacked program streams ~4 client-by-params matrices through every
    #: mini-batch step, so very wide stacks turn cache-resident weight state
    #: into DRAM traffic.  Geometry groups are therefore executed in blocks
    #: of at most this many clients — block splitting is invisible to the
    #: results (every op is per-client-slice or elementwise).
    _MAX_BLOCK_CLIENTS = 32

    #: When fanning out across threads, never shrink blocks below this —
    #: tiny stacks spend more time in dispatch than they win back in
    #: parallel BLAS.
    _MIN_BLOCK_CLIENTS = 4

    def __init__(self, clients: Sequence[FLClient], threads: Optional[int] = None) -> None:
        if not clients:
            raise ValueError("BatchTrainer needs at least one client")
        if threads is None:
            try:
                cores = len(os.sched_getaffinity(0))
            except AttributeError:  # platforms without sched_getaffinity
                cores = os.cpu_count() or 1
            threads = min(4, cores)
        self.threads = max(1, int(threads))
        self._executor: Optional[ThreadPoolExecutor] = None
        self.clients = list(clients)
        template = self.clients[0].model
        self._template = template
        self._layer_signature = self._signature(template)
        for client in self.clients[1:]:
            if client.model is template:  # the engine's shared workspace
                continue
            if self._signature(client.model) != self._layer_signature:
                raise ValueError(
                    "all clients must share one model architecture to train batched"
                )
        # Flat layout of the parameter vector, the model's own: (layer
        # position, name, shape, offset).
        self._param_layout: List[Tuple[int, str, Tuple[int, ...], int]] = []
        offset = 0
        for position, layer in enumerate(template.layers):
            for name, value in layer.params.items():
                self._param_layout.append((position, name, value.shape, offset))
                offset += value.size
        self._num_params = offset
        #: geometry key -> (user_id -> row, padded xs, padded ys).
        self._shard_cache: Dict[
            Tuple, Tuple[Dict[int, int], np.ndarray, np.ndarray]
        ] = {}

    @staticmethod
    def _signature(model: Sequential):
        return tuple(
            (type(layer).__name__,) + tuple(sorted((k, v.shape) for k, v in layer.params.items()))
            for layer in model.layers
        )

    # -- grouping ----------------------------------------------------------------

    def _group_key(self, client: FLClient) -> Tuple:
        num_batches = -(-len(client.partition) // client.batch_size)
        return (
            client.batch_size,
            client.local_epochs,
            num_batches,
            client.partition.x.shape[1:],
        )

    def _geometry_shards(self, key: Tuple, padded_len: int):
        """``(row_of, xs, ys)`` shard tensors for one whole geometry group.

        ``xs``/``ys`` are padded client-major stacks over *every* client
        with this shard geometry (memory bounded by one padded copy of the
        dataset) and ``row_of`` maps a ``user_id`` to its row; batches
        index rows for whatever subset of clients they contain, so
        recurring train-ahead batches never restack shard data.
        """
        cached = self._shard_cache.get(key)
        if cached is not None:
            return cached
        members = [client for client in self.clients if self._group_key(client) == key]
        row_of = {client.user_id: row for row, client in enumerate(members)}
        feature_shape = members[0].partition.x.shape[1:]
        xs = np.zeros((len(members), padded_len) + feature_shape)
        ys = np.zeros((len(members), padded_len), dtype=np.int64)
        for row, client in enumerate(members):
            n = len(client.partition)
            xs[row, :n] = client.partition.x
            ys[row, :n] = client.partition.y
        self._shard_cache[key] = (row_of, xs, ys)
        return row_of, xs, ys

    # -- public API --------------------------------------------------------------

    def train(
        self, requests: Sequence[TrainRequest], include_params: bool = False
    ) -> List[LocalUpdate]:
        """Run every requested local round and return the uploads, in order.

        Clients are partitioned into shard-geometry groups and each group
        runs as one stacked program; the returned list is aligned with
        ``requests``.  Client state (momentum, RNG, round counter) is left
        exactly as serial ``local_train`` calls would leave it; the clients'
        model workspace is not touched.
        """
        seen = set()
        groups: Dict[Tuple, List[TrainRequest]] = {}
        for request in requests:
            if request.user_id in seen:
                raise ValueError(f"user {request.user_id} requested twice in one batch")
            seen.add(request.user_id)
            if request.base_params.shape != (self._num_params,):
                raise ValueError("base_params does not match the model's flat layout")
            groups.setdefault(self._group_key(self.clients[request.user_id]), []).append(request)
        blocks: List[List[TrainRequest]] = []
        for key, group_requests in groups.items():
            # Pre-build the geometry shard stacks single-threaded so the
            # block fan-out below only ever reads the cache.
            self._geometry_shards(key, key[2] * key[0])
            # With threads available, a group splits into ~one block per
            # thread (never below the minimum useful size) so even a
            # single 25-client group spreads across cores; block splitting
            # never changes values (every op is per-client-slice).
            block_size = self._MAX_BLOCK_CLIENTS
            if self.threads > 1:
                per_thread = -(-len(group_requests) // self.threads)
                block_size = min(block_size, max(self._MIN_BLOCK_CLIENTS, per_thread))
            for start in range(0, len(group_requests), block_size):
                blocks.append(group_requests[start : start + block_size])
        results: Dict[int, LocalUpdate] = {}
        if self.threads > 1 and len(blocks) > 1:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(max_workers=self.threads)
            block_results: List[Dict[int, LocalUpdate]] = [{} for _ in blocks]
            futures = [
                self._executor.submit(self._train_group, block, include_params, out)
                for block, out in zip(blocks, block_results)
            ]
            for future in futures:
                future.result()
            for out in block_results:
                results.update(out)
        else:
            for block in blocks:
                self._train_group(block, include_params, results)
        return [results[request.user_id] for request in requests]

    # -- the stacked round -------------------------------------------------------

    def _train_group(
        self,
        requests: Sequence[TrainRequest],
        include_params: bool,
        results: Dict[int, LocalUpdate],
    ) -> None:
        group = [self.clients[request.user_id] for request in requests]
        num_clients = len(group)
        batch_size = group[0].batch_size
        epochs = group[0].local_epochs
        num_batches = -(-len(group[0].partition) // batch_size)
        padded_len = num_batches * batch_size

        # The whole optimisation state as three contiguous (C, P) matrices;
        # layers see them through zero-copy strided views.
        params_mat = np.stack([request.base_params for request in requests])
        velocity_mat = np.zeros((num_clients, self._num_params))
        for c, client in enumerate(group):
            if client.optimizer.velocity is not None:
                velocity_mat[c] = client.optimizer.velocity
        grad_mat = np.empty_like(params_mat)
        scratch = np.empty_like(params_mat)

        param_views: Dict[int, Dict[str, np.ndarray]] = {}
        grad_views: Dict[int, Dict[str, np.ndarray]] = {}
        for position, name, shape, offset in self._param_layout:
            param_views.setdefault(position, {})[name] = _segment_view(
                params_mat, offset, shape
            )
            grad_views.setdefault(position, {})[name] = _segment_view(
                grad_mat, offset, shape
            )
        program: List[_BatchedLayer] = []
        for position, layer in enumerate(self._template.layers):
            batched = _batched_layer_for(layer, position, group)
            batched.bind(param_views.get(position, {}), grad_views.get(position, {}))
            program.append(batched)
        loss_fn = _BatchedSoftmaxCrossEntropy()

        # Per-client Eq. (1) hyper-parameters; scalars when the group is
        # uniform (the common case), per-client column broadcasts otherwise.
        lr = np.array([client.optimizer.learning_rate for client in group])
        beta = np.array([client.optimizer.momentum for client in group])
        decay = np.array([client.optimizer.weight_decay for client in group])
        uniform = (
            lr.min() == lr.max() and beta.min() == beta.max() and decay.min() == decay.max()
        )
        if uniform:
            lr_f, beta_f, decay_f = float(lr[0]), float(beta[0]), float(decay[0])
        else:
            lr_f, beta_f, decay_f = lr[:, None], beta[:, None], decay[:, None]
        has_decay = bool(decay.any())

        shard_lengths = np.array([len(client.partition) for client in group], dtype=np.int64)
        tail_counts = shard_lengths - (num_batches - 1) * batch_size
        full_counts = np.full(num_clients, batch_size, dtype=np.int64)
        row_of, xs, ys = self._geometry_shards(self._group_key(group[0]), padded_len)
        client_rows = np.array([row_of[client.user_id] for client in group])[:, None]

        step_losses_log: List[np.ndarray] = []
        for _ in range(epochs):
            # Per-client shuffles, consuming each client's own RNG stream
            # exactly as the serial path's DataPartition.batches would.
            order = np.zeros((num_clients, padded_len), dtype=np.int64)
            for c, client in enumerate(group):
                indices = client.partition.epoch_indices(client._rng)
                order[c, : len(indices)] = indices
            xs_epoch = xs[client_rows, order]
            ys_epoch = ys[client_rows, order]
            for b in range(num_batches):
                counts = tail_counts if b == num_batches - 1 else full_counts
                out = xs_epoch[:, b * batch_size : (b + 1) * batch_size]
                yb = ys_epoch[:, b * batch_size : (b + 1) * batch_size]
                for batched in program:
                    out = batched.forward(out, counts)
                step_losses_log.append(loss_fn.forward(out, yb, counts))
                grad = loss_fn.backward()
                for i in range(len(program) - 1, 0, -1):
                    grad = program[i].backward(grad)
                # The input gradient of the first layer has no consumer.
                program[0].backward_first(grad)
                # Eq. (1) on the flat matrices — per-client rows so each
                # ~P-sized update stays cache-resident right after its
                # gradients were written: v = beta v + (1 - beta) g;
                # p -= eta v.  Elementwise, so the row-major order changes
                # nothing about the values.
                if has_decay:
                    np.multiply(params_mat, decay_f, out=scratch)
                    grad_mat += scratch
                if uniform and num_clients <= self._ROW_MOMENTUM_MAX_CLIENTS:
                    one_minus_beta = 1.0 - beta_f
                    for c in range(num_clients):
                        vel_row = velocity_mat[c]
                        grad_row = grad_mat[c]
                        scratch_row = scratch[c]
                        vel_row *= beta_f
                        np.multiply(grad_row, one_minus_beta, out=scratch_row)
                        vel_row += scratch_row
                        np.multiply(vel_row, lr_f, out=scratch_row)
                        params_mat[c] -= scratch_row
                else:
                    # beta_f / lr_f are scalars or (C, 1) columns, so one
                    # code path covers uniform-but-wide and non-uniform.
                    velocity_mat *= beta_f
                    np.multiply(grad_mat, 1.0 - beta_f, out=scratch)
                    velocity_mat += scratch
                    np.multiply(velocity_mat, lr_f, out=scratch)
                    params_mat -= scratch

        # (steps, C) loss matrix; per-client mean over the step axis is the
        # same np.mean over the same float64 values the serial path logs.
        loss_matrix = np.stack(step_losses_log) if step_losses_log else None
        for c, (request, client) in enumerate(zip(requests, group)):
            client.optimizer.load_velocity(velocity_mat[c])
            client.rounds_completed += 1
            results[request.user_id] = LocalUpdate(
                user_id=client.user_id,
                delta=params_mat[c] - request.base_params,
                base_version=request.base_version,
                num_samples=int(shard_lengths[c]),
                train_loss=float(np.mean(loss_matrix[:, c])) if loss_matrix is not None else 0.0,
                momentum_norm=client.momentum_norm(),
                num_batches=num_batches * epochs,
                params=params_mat[c].copy() if include_params else None,
            )


class TrainAheadScheduler:
    """Train-ahead orchestration of pending local rounds, serial or batched.

    A local round's content is fully determined the moment the job is
    scheduled: the base parameters were captured at download, and the
    client's RNG and momentum state cannot change while its job is in flight
    (a training user is never ready, so nothing observes or advances its
    client state until the upload).  Callers therefore :meth:`record` a
    round at schedule time and :meth:`obtain` its upload at completion time:

    * serial mode runs ``local_train`` at the completion slot, exactly as
      the original engine did;
    * batched mode answers from a train-ahead cache, executing the whole
      pending in-flight set as one stacked :class:`BatchTrainer` program on
      the first miss — batching everything in flight rather than just the
      jobs that happen to finish in the same slot.

    The scheduler is shared verbatim by the per-user reference loop
    and by every fleet shard (single-process or worker-process), so the
    train-ahead semantics cannot fork between execution modes.  Indices are
    positions in ``clients`` (the engine passes the full fleet, a shard its
    slice); the returned :class:`~repro.fl.client.LocalUpdate` carries the
    client's own (global) ``user_id`` either way.
    """

    def __init__(
        self,
        clients: Sequence[FLClient],
        batched: bool,
        threads: Optional[int] = None,
        include_params: bool = True,
    ) -> None:
        self.clients = clients  # reprolint: static
        self.batched = bool(batched)  # reprolint: static
        self.threads = threads  # reprolint: static
        self.include_params = include_params  # reprolint: static
        self._trainer: Optional[BatchTrainer] = None
        self._pending: Dict[int, TrainRequest] = {}
        self._trained: Dict[int, LocalUpdate] = {}

    def record(self, index: int, base_params: np.ndarray, base_version: int) -> None:
        """Register a just-started round (no-op in serial mode)."""
        if self.batched:
            self._pending[index] = TrainRequest(
                user_id=index, base_params=base_params, base_version=int(base_version)
            )

    def obtain(self, index: int, base_params: np.ndarray, base_version: int) -> LocalUpdate:
        """The finished round's upload: serial now, or from the train-ahead batch."""
        if not self.batched:
            return self.clients[index].local_train(
                base_params, int(base_version), include_params=self.include_params
            )
        update = self._trained.pop(index, None)
        if update is None:
            if index not in self._pending:  # defensive: unrecorded schedule
                self._pending[index] = TrainRequest(
                    user_id=index, base_params=base_params, base_version=int(base_version)
                )
            if self._trainer is None:
                self._trainer = BatchTrainer(self.clients, threads=self.threads)
            requests = [self._pending[i] for i in sorted(self._pending)]
            self._pending.clear()
            updates = self._trainer.train(requests, include_params=self.include_params)
            for request, trained in zip(requests, updates):
                self._trained[request.user_id] = trained
            update = self._trained.pop(index)
        return update

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """The in-flight train-ahead state, as plain picklable values.

        Pending requests that have not been materialized keep their exact
        base parameters and version, so a restored scheduler re-trains them
        with the client RNG untouched; already-trained updates are carried
        verbatim so the client RNG is *not* re-consumed for them.  The
        :class:`BatchTrainer` itself (which owns a thread pool) is dropped
        and rebuilt lazily on the next cache miss.
        """
        return {
            "pending": {
                index: (request.base_params.copy(), request.base_version)
                for index, request in self._pending.items()
            },
            "trained": dict(self._trained),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore the state captured by :meth:`state_dict`."""
        self._pending = {
            int(index): TrainRequest(
                user_id=int(index),
                base_params=np.asarray(base_params, dtype=float),
                base_version=int(base_version),
            )
            for index, (base_params, base_version) in state["pending"].items()
        }
        self._trained = dict(state["trained"])
        self._trainer = None

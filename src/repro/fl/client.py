"""Federated-learning client: one participant's local training routine.

Each device runs the Training App of Section VI: it downloads the current
global model, performs one local epoch of mini-batch momentum SGD (batch size
20 in the paper) over its local shard, and uploads the resulting parameters
together with meta information (device id, base version) to the parameter
server.

The client keeps its momentum vector across rounds — that vector is exactly
the ``v_t`` consumed by the gradient-gap estimate of Eq. (4), so the
simulation engine queries :meth:`FLClient.momentum_norm` when the online
controller evaluates its decision rule.

:meth:`FLClient.local_train` runs the rounds of a whole slot's finishers in
one call: clients that train the same model on as many samples with the same
hyper-parameters run as one stacked program, bit for bit their own rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.fl.dataset import DataPartition
from repro.fl.model import Sequential
from repro.fl.optimizer import MomentumSGD

__all__ = ["LocalUpdate", "FLClient", "BLOCK_BYTES"]

#: Bytes one ``(k, P)`` parameter block of a stacked round may hold.  Beyond
#: a few hundred KiB the block's elementwise passes leave the cache and cost
#: more than the per-round dispatch they save (the paper's 128-64 MLP, 138 KB
#: a row, therefore trains in blocks of one).
BLOCK_BYTES = 256 * 1024


@dataclass
class LocalUpdate:
    """The payload a client uploads after finishing a local epoch.

    The upload is *delta-only* by default: ``delta`` is the full information
    content of the round (the server reconstructs absolute parameters when a
    merge rule needs them), so shipping ``params`` alongside it would double
    the payload for nothing.  ``params`` is therefore optional and only
    populated when the caller asks for it (``include_params=True`` — e.g.
    when the server runs a replace/mixing rule that consumes absolute
    parameter vectors).

    Attributes:
        user_id: the uploading participant.
        delta: the parameter change produced by the local epoch
            (``params - base_params``); the server's accumulate rule applies
            this to whatever the global model has become in the meantime.
        base_version: parameter-server version the client trained from.
        num_samples: size of the client's local shard (FedAvg weighting).
        train_loss: mean training loss over the local epoch.
        momentum_norm: L2 norm of the client's momentum vector after the
            epoch — used for gradient-gap bookkeeping on the server side.
        num_batches: number of mini-batch steps taken.
        params: the locally-updated flat parameter vector, or ``None`` for a
            delta-only upload.
    """

    user_id: int
    delta: np.ndarray
    base_version: int
    num_samples: int
    train_loss: float
    momentum_norm: float
    num_batches: int
    params: Optional[np.ndarray] = None

    def payload_nbytes(self) -> int:
        """Bytes of parameter data this upload actually ships."""
        size = int(self.delta.nbytes)
        if self.params is not None:
            size += int(self.params.nbytes)
        return size


class FLClient:
    """One participant of the federated system.

    Args:
        user_id: participant index.
        partition: the participant's local data shard.
        model: the :class:`Sequential` to train in — a workspace, not client
            state: every round loads the download first and reads its result
            out last, so clients may share one instance (the engine's do).
        learning_rate: ``eta`` of Eq. (1).
        momentum: ``beta`` of Eq. (1).
        batch_size: mini-batch size (20 in the paper).
        local_epochs: local epochs per round (1 in the paper).
        seed: seed for the client-local shuffling RNG.
    """

    def __init__(
        self,
        user_id: int,
        partition: DataPartition,
        model: Sequential,
        learning_rate: float = 0.05,
        momentum: float = 0.9,
        batch_size: int = 20,
        local_epochs: int = 1,
        seed: int = 0,
    ) -> None:
        if batch_size <= 0 or local_epochs <= 0:
            raise ValueError("batch_size and local_epochs must be positive")
        self.user_id = user_id
        self.partition = partition
        self.model = model
        self.batch_size = batch_size
        self.local_epochs = local_epochs
        self.optimizer = MomentumSGD(learning_rate=learning_rate, momentum=momentum)
        self._rng = np.random.default_rng(seed)
        self.rounds_completed = 0

    # -- staleness hooks -----------------------------------------------------------

    @property
    def learning_rate(self) -> float:
        """The client's learning rate ``eta``."""
        return self.optimizer.learning_rate

    @property
    def momentum(self) -> float:
        """The client's momentum coefficient ``beta``."""
        return self.optimizer.momentum

    def momentum_norm(self) -> float:
        """L2 norm of the client's current momentum vector ``v_t``."""
        return self.optimizer.velocity_norm()

    # -- training ---------------------------------------------------------------------

    @staticmethod
    def local_train(
        clients: Sequence["FLClient"],
        bases: Sequence[np.ndarray],
        base_versions: Sequence[int],
        include_params: bool = True,
    ) -> List[LocalUpdate]:
        """Run one local round for each client, ``clients[i]`` from ``bases[i]``.

        A round is ``local_epochs`` passes over the client's shard in
        shuffled mini-batches (one sample order and one gather per epoch,
        the batches its row slices), with the client's persistent momentum.
        Clients that train one model on as many samples with the same batch
        size, epochs, learning rate, momentum and weight decay run together
        as one stacked program (:meth:`~repro.fl.model.Sequential.stacked`)
        in blocks of at most :data:`BLOCK_BYTES` of parameters; every other
        client — a block of one, or a model with ``Conv2D`` / ``MaxPool2D`` /
        ``Dropout`` layers, whose shared RNG is drawn client by client in
        input order — runs its own round.  Either way each client's
        shuffling RNG, momentum vector, round counter and upload are bit for
        bit those of its own round.

        Args:
            clients: the training clients (the slot's finishers), each at
                most once.
            bases: the downloaded global model each trains from (flat vectors).
            base_versions: parameter-server version of each base.
            include_params: also ship the absolute parameter vectors; the
                engines pass ``False`` under the accumulate merge rule (it
                consumes the delta only; halves the upload payload) and
                ``True`` under replace / mixing / staleness-weighted.

        Returns:
            One :class:`LocalUpdate` per client, in input order.
        """
        if not len(clients) == len(bases) == len(base_versions):
            raise ValueError("clients, bases and base_versions must align")
        updates: List[Optional[LocalUpdate]] = [None] * len(clients)
        groups: Dict[tuple, List[int]] = {}
        stackable: Dict[Sequential, bool] = {}
        for index, client in enumerate(clients):
            model, size = client.model, len(client.partition)
            if model not in stackable:
                stackable[model] = model.stackable()
            if stackable[model] and size:
                optimizer = client.optimizer
                key = (
                    model,
                    size,
                    client.batch_size,
                    client.local_epochs,
                    optimizer.learning_rate,
                    optimizer.momentum,
                    optimizer.weight_decay,
                )
                groups.setdefault(key, []).append(index)
            else:  # now, in input order: a shared dropout RNG is drawn client by client
                updates[index] = client._train_round(
                    bases[index], base_versions[index], include_params
                )
        for (model, *_), group in groups.items():
            rows = max(1, BLOCK_BYTES // model.flat_params.nbytes)
            for start in range(0, len(group), rows):
                block = group[start : start + rows]
                trained = FLClient._train_block(
                    [clients[index] for index in block],
                    [bases[index] for index in block],
                    [base_versions[index] for index in block],
                    include_params,
                )
                for index, update in zip(block, trained):
                    updates[index] = update
        return updates  # type: ignore[return-value]

    def _train_round(
        self, global_params: np.ndarray, base_version: int, include_params: bool
    ) -> LocalUpdate:
        """One client's round in the shared model workspace (a block of one)."""
        model, partition, batch_size = self.model, self.partition, self.batch_size
        model.set_flat_params(global_params)
        model.train_mode(True)
        size = len(partition)
        losses = []
        for _ in range(self.local_epochs):
            indices = partition.epoch_indices(self._rng)
            x, y = partition.x[indices], partition.y[indices]
            for start in range(0, size, batch_size):
                stop = start + batch_size
                losses.append(model.train_step_gradients(x[start:stop], y[start:stop]))
                self.optimizer.step(model)
        self.rounds_completed += 1
        num_batches = len(losses)
        if num_batches > 1:  # what ``np.mean`` computes
            train_loss = float(np.add.reduce(np.array(losses)) / num_batches)
        else:
            train_loss = losses[0] if losses else 0.0
        return LocalUpdate(
            user_id=self.user_id,
            delta=model.flat_params - global_params,
            base_version=base_version,
            num_samples=size,
            train_loss=train_loss,
            momentum_norm=self.optimizer.velocity_norm(),
            num_batches=num_batches,
            params=model.get_flat_params() if include_params else None,
        )

    @staticmethod
    def _train_block(
        clients: Sequence["FLClient"],
        bases: Sequence[np.ndarray],
        base_versions: Sequence[int],
        include_params: bool,
    ) -> List[LocalUpdate]:
        """The rounds of ``k`` same-shape clients as one stacked program (a
        block of one is the client's own round).

        Row ``i`` of every block is client ``i``: the ``(k, P)`` parameters,
        gradients and velocities, the ``(k, n, ...)`` epoch gather drawn
        from each client's own RNG, and the ``(k,)`` batch losses.  The
        blocks are the model's reusable workspace, so every vector that
        leaves the round — upload, momentum — is a fresh copy of its row.
        """
        first = clients[0]
        if len(clients) == 1:
            return [first._train_round(bases[0], base_versions[0], include_params)]
        size, batch_size = len(first.partition), first.batch_size
        block = first.model.stacked(len(clients))
        params = block.flat_params
        for row, base in enumerate(bases):
            params[row] = base
        optimizer = MomentumSGD.stacked(
            [client.optimizer for client in clients], block.flat_momentum
        )
        losses = []
        for _ in range(first.local_epochs):
            gathers = [
                client.partition.epoch_indices(client._rng) for client in clients
            ]
            x = np.stack([c.partition.x[i] for c, i in zip(clients, gathers)])
            y = np.stack([c.partition.y[i] for c, i in zip(clients, gathers)])
            for start in range(0, size, batch_size):
                stop = start + batch_size
                losses.append(block.train_step_gradients(x[:, start:stop], y[:, start:stop]))
                optimizer.step(block)
        num_batches = len(losses)
        if num_batches > 1:  # per row, what ``np.mean`` computes
            train_losses = np.add.reduce(np.stack(losses, axis=1), axis=1) / num_batches
        else:
            train_losses = losses[0]
        updates = []
        for row, client in enumerate(clients):
            client.rounds_completed += 1
            client.optimizer.load_velocity(block.flat_momentum[row])
            updates.append(
                LocalUpdate(
                    user_id=client.user_id,
                    delta=params[row] - bases[row],
                    base_version=base_versions[row],
                    num_samples=size,
                    train_loss=float(train_losses[row]),
                    momentum_norm=client.optimizer.velocity_norm(),
                    num_batches=num_batches,
                    params=params[row].copy() if include_params else None,
                )
            )
        return updates

    def evaluate_local(self, params: np.ndarray) -> float:
        """Training-set accuracy of ``params`` on the client's own shard (diagnostics)."""
        self.model.set_flat_params(params)
        predictions = self.model.predict(self.partition.x)
        return float(np.mean(predictions == self.partition.y))

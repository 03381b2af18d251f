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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.fl.dataset import DataPartition
from repro.fl.model import Sequential
from repro.fl.optimizer import MomentumSGD

__all__ = ["LocalUpdate", "FLClient"]


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

    def local_train(
        self,
        global_params: np.ndarray,
        base_version: int,
        include_params: bool = True,
    ) -> LocalUpdate:
        """Run one local round starting from ``global_params``.

        The round is ``local_epochs`` passes over the local shard in shuffled
        mini-batches (one sample order and one gather per epoch, the batches
        its row slices), with the persistent momentum state of this client.

        Args:
            global_params: the downloaded global model (flat vector).
            base_version: parameter-server version of ``global_params``.
            include_params: also ship the absolute parameter vector; the
                engines pass ``False`` under the accumulate merge rule (it
                consumes the delta only; halves the upload payload) and
                ``True`` under replace / mixing / staleness-weighted.

        Returns:
            The :class:`LocalUpdate` to upload to the parameter server.
        """
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

    def evaluate_local(self, params: np.ndarray) -> float:
        """Training-set accuracy of ``params`` on the client's own shard (diagnostics)."""
        self.model.set_flat_params(params)
        predictions = self.model.predict(self.partition.x)
        return float(np.mean(predictions == self.partition.y))

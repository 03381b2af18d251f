"""Federated-learning clients: the participants' local training routine.

Each device runs the Training App of Section VI: it downloads the current
global model, performs one local epoch of mini-batch momentum SGD (batch size
20 in the paper) over its local shard, and uploads the resulting parameters
together with meta information (device id, base version) to the parameter
server.

:class:`FLClient` holds the clients of one contiguous user range as columns
(the client plane) rather than as one object per user: the range's slice of
the partition order with an offsets column (the dataset's own arrays are
read through it, never copied), a round counter column, one momentum vector
per user (``None`` until its first round; it is exactly the ``v_t``
consumed by the gradient-gap estimate of Eq. (4), whose norm every upload
reports), the shuffling generators of the users that have drawn, and
hyper-parameters shared by the range.

:meth:`FLClient.plan_blocks` cuts a slot's finishers into blocks, and
:meth:`FLClient.local_train` runs the rounds of one block in one call,
every round a row of a stacked program: users with as many samples share
one, and a user alone runs a block of one, the model itself — each bit for
bit its own round.  The plane therefore trains
``Linear`` / ``ReLU`` / ``Tanh`` stacks (the simulation's MLP) and users
holding at least one sample, and refuses anything else at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.layers import Linear, ReLU, Tanh
from repro.fl.model import Sequential
from repro.fl.optimizer import MomentumSGD, vector_norm

__all__ = ["LocalUpdate", "FLClient", "BLOCK_BYTES"]

#: Bytes one ``(k, P)`` parameter block of a stacked round may hold.  Beyond
#: a few hundred KiB the block's elementwise passes leave the cache and cost
#: more than the per-round dispatch they save (the paper's 128-64 MLP, 138 KB
#: a row, therefore trains in blocks of one).
BLOCK_BYTES = 256 * 1024

_LOW = (1 << 64) - 1  # the low word of a 128-bit PCG64 state

#: The layers whose math takes a leading block axis (:meth:`Sequential.stacked`).
_BLOCK_LAYERS = (Linear, ReLU, Tanh)


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


class FLClient:
    """The federated clients of users ``[lo, lo + n)``, as one column plane.

    User ``lo + i`` holds the samples ``x[order[offsets[i]:offsets[i + 1]]]``
    (and their labels in ``y``); methods name users by their index ``i`` in
    the range.
    Its shuffling generator is seeded ``seed + lo + i`` and made the first
    time a shuffle would draw: ``Generator.shuffle`` of at most one element
    leaves the bit-generator state unchanged, so a user with one sample
    never needs one, and a lazily made generator draws the same stream as
    one made at build.

    Args:
        x / y: the training samples and labels, read, never written (a
            dataset's arrays may be shared).
        order: the rows of ``x`` / ``y`` the range holds, user by user.
        offsets: ``(n + 1,)`` offsets into ``order``, rising strictly from 0
            to ``len(order)``: every user holds a sample.
        model: the ``Linear`` / ``ReLU`` / ``Tanh`` :class:`Sequential` to
            train in — a workspace, not client state: every round loads the
            download first and reads its result out last, so planes may
            share one instance.
        lo: global id of the range's first user.
        learning_rate: ``eta`` of Eq. (1).
        momentum: ``beta`` of Eq. (1).
        batch_size: mini-batch size (20 in the paper).
        local_epochs: local epochs per round (1 in the paper).
        seed: user ``u``'s shuffling generator is seeded ``seed + u``.
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        order: np.ndarray,
        offsets: np.ndarray,
        model: Sequential,
        lo: int = 0,
        learning_rate: float = 0.05,
        momentum: float = 0.9,
        batch_size: int = 20,
        local_epochs: int = 1,
        seed: int = 0,
    ) -> None:
        if batch_size <= 0 or local_epochs <= 0:
            raise ValueError("batch_size and local_epochs must be positive")
        order = np.asarray(order, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if (
            len(x) != len(y)
            or len(offsets) == 0
            or offsets[0] != 0
            or offsets[-1] != len(order)
            or np.any(offsets[1:] <= offsets[:-1])
        ):
            raise ValueError(
                "offsets must rise strictly from 0 to len(order) (no user without "
                "samples), and y must align with x"
            )
        if any(type(layer) not in _BLOCK_LAYERS for layer in model.layers):
            raise ValueError("the client plane trains Linear / ReLU / Tanh stacks only")
        self.x = x  # reprolint: static
        self.y = y  # reprolint: static
        self.order = order  # reprolint: static
        self.offsets = offsets  # reprolint: static
        self.model = model  # reprolint: static (a workspace, see above)
        self.lo = lo  # reprolint: static
        self.batch_size = batch_size  # reprolint: static
        self.local_epochs = local_epochs  # reprolint: static
        self.seed = seed  # reprolint: static
        #: The shared hyper-parameters; it steps every block, holding the
        #: block's momentum (:meth:`~MomentumSGD.load_rows`) for one round.
        self.optimizer = MomentumSGD(learning_rate, momentum)  # reprolint: static
        users = len(offsets) - 1
        self.rounds_completed = np.zeros(users, dtype=np.int64)
        self.velocities: List[Optional[np.ndarray]] = [None] * users
        self._generators: Dict[int, np.random.Generator] = {}
        #: Every user's seeded PCG64 ``state`` and ``inc``, as 64-bit high and
        #: low words: made at the first snapshot, 32 B a user.
        self._seeded_words: Optional[np.ndarray] = None  # reprolint: static (derived from seed)

    def __len__(self) -> int:
        return len(self.velocities)

    def num_samples(self, user: int) -> int:
        """Size of ``user``'s local shard."""
        return int(self.offsets[user + 1] - self.offsets[user])

    # -- shuffling generators ---------------------------------------------------------

    def _generator(self, user: int) -> np.random.Generator:
        """``user``'s shuffling generator, made (seeded) on first use."""
        generator = self._generators.get(user)
        if generator is None:
            generator = np.random.default_rng(self.seed + self.lo + user)
            self._generators[user] = generator
        return generator

    def _epoch_order(self, user: int, size: int) -> np.ndarray:
        """The sample order of one of ``user``'s epochs: one shuffle draw."""
        order = np.arange(size)
        if size > 1:  # a shuffle of one element draws nothing
            self._generator(user).shuffle(order)
        return order

    def rng_state(self, user: int) -> dict:
        """``user``'s bit-generator state; the seeded one while it has never
        drawn (the whole range's seeded states are computed once, as words)."""
        generator = self._generators.get(user)
        if generator is not None:
            return generator.bit_generator.state
        if self._seeded_words is None:
            first = self.seed + self.lo
            seeds = range(first, first + len(self))
            seeded = [np.random.PCG64(seed).state["state"] for seed in seeds]
            self._seeded_words = np.array(
                [[s["state"] >> 64, s["state"] & _LOW, s["inc"] >> 64, s["inc"] & _LOW]
                 for s in seeded],
                dtype=np.uint64,
            ).reshape(-1, 4)
        state_hi, state_lo, inc_hi, inc_lo = self._seeded_words[user].tolist()
        return {
            "bit_generator": "PCG64",
            "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }

    # -- checkpointing ------------------------------------------------------------------

    def checkpoint_state(self) -> Tuple[List[dict], List[Optional[np.ndarray]]]:
        """Per user ``{rng_state, rounds_completed}``, and the momentum vectors.

        The vectors are *lent*, not copied: each comes back read-only, so the
        next round continues on a private copy (copy-on-write) and the
        snapshot may hold them for as long as it likes.
        """
        clients = [
            {"rng_state": self.rng_state(user), "rounds_completed": rounds}
            for user, rounds in enumerate(self.rounds_completed.tolist())
        ]
        velocities = list(self.velocities)
        for velocity in velocities:
            if velocity is not None:
                velocity.flags.writeable = False
        return clients, velocities

    def restore_state(
        self, clients: Sequence[dict], velocities: Sequence[Optional[np.ndarray]]
    ) -> None:
        """Install state in the form :meth:`checkpoint_state` returns.

        A user that never finished a round, or whose shuffles hold at most
        one sample, has never drawn: its generator is left to its first draw.
        """
        if not len(clients) == len(velocities) == len(self):
            raise ValueError("client state must cover exactly the plane's users")
        self.velocities = [None if v is None else v.copy() for v in velocities]
        self.rounds_completed = np.array(
            [client["rounds_completed"] for client in clients], dtype=np.int64
        )
        self._generators = {}
        drew = (self.rounds_completed > 0) & (self.offsets[1:] - self.offsets[:-1] > 1)
        for user in np.flatnonzero(drew).tolist():
            self._generator(user).bit_generator.state = clients[user]["rng_state"]

    # -- training ---------------------------------------------------------------------

    def plan_blocks(self, users: Sequence[int]) -> List[List[int]]:
        """The training blocks of ``users``, as lists of positions into it.

        Users with as many samples form one group, in the order of their
        first appearance, cut into blocks of at most :data:`BLOCK_BYTES` of
        parameters (a group of one, or a model too wide to stack, into
        blocks of one).  Within a block positions ascend, so ascending
        ``users`` give ascending blocks, and each group's blocks follow one
        another.
        """
        groups: Dict[int, List[int]] = {}
        for position, user in enumerate(users):
            groups.setdefault(self.num_samples(user), []).append(position)
        rows = max(1, BLOCK_BYTES // self.model.flat_params.nbytes)
        return [
            group[start : start + rows]
            for group in groups.values()
            for start in range(0, len(group), rows)
        ]

    def local_train(
        self,
        users: Sequence[int],
        bases: Sequence[np.ndarray],
        base_versions: Sequence[int],
        include_params: bool = True,
    ) -> List[LocalUpdate]:
        """Run one local round for each user of one block, ``users[i]`` from ``bases[i]``.

        A round is ``local_epochs`` passes over the user's shard in shuffled
        mini-batches (one sample order and one gather per epoch, the batches
        its row slices), with the user's persistent momentum.  The block's
        users hold as many samples each and run together as one stacked
        program (:meth:`~repro.fl.model.Sequential.stacked`), :meth:`plan_blocks`
        makes such blocks.  Each user's shuffling generator, momentum vector,
        round counter and upload are bit for bit those of its own round.

        Row ``i`` of every block is ``users[i]``: the ``(k, P)`` parameters,
        gradients and velocities, the ``(k, n, ...)`` epoch gather — one
        fancy index through the order, in the order each user's own
        generator draws — and the ``(k,)`` batch losses.  A block of one (a
        network without ``flat_momentum`` rows: the model itself) runs in
        the model's own shapes: ``(P,)`` vectors, an ``(n, ...)`` gather,
        float losses, and the user's own momentum vector stepped in place.
        The blocks are the model's reusable workspace, so every vector that
        leaves the round is a fresh copy: a momentum row on its own, the
        uploads (deltas, and ``params`` under ``include_params``) as rows of
        one fresh ``(k, P)`` block each.

        Args:
            users: one block of training users (indices into the range),
                each at most once, all holding as many samples (a mix
                raises ``ValueError``), at most :data:`BLOCK_BYTES` of
                parameters together.
            bases: the downloaded global model each trains from (flat vectors).
            base_versions: parameter-server version of each base.
            include_params: also ship the absolute parameter vectors; the
                engines pass ``False`` under the accumulate merge rule (it
                consumes the delta only; halves the upload payload) and
                ``True`` under replace / mixing / staleness-weighted.

        Returns:
            One :class:`LocalUpdate` per user, in input order.
        """
        if not len(users) == len(bases) == len(base_versions) > 0:
            raise ValueError("users, bases and base_versions must align, and name a user")
        size, batch_size = self.num_samples(users[0]), self.batch_size
        block, optimizer = self.model.stacked(len(users)), self.optimizer
        # A block of one has no momentum rows: it is the model itself, and
        # steps the user's own vector in place.
        alone = block.flat_momentum is None
        params = block.flat_params.reshape(len(users), -1)  # one row per user
        for row, base in enumerate(bases):
            params[row] = base
        optimizer.load_rows([self.velocities[user] for user in users], block.flat_momentum)
        # A block of one indexes by scalar: a one-row fancy index costs ~4 us.
        if alone:
            index = users[0]
            first = self.offsets[index : index + 1]
        else:
            index = np.array(users)
            starts = self.offsets[index]
            if (self.offsets[index + 1] - starts).tolist() != [size] * len(users):
                raise ValueError("a block's users must hold as many samples each")
            first = starts[:, None]
        losses = []
        for _ in range(self.local_epochs):
            if size == 1:  # nothing to shuffle
                rows = first
            else:
                orders = [self._epoch_order(user, size) for user in users]
                rows = first + (orders[0] if alone else np.array(orders))
            picked = self.order[rows]
            x, y = self.x[picked], self.y[picked]
            if size <= batch_size:  # one batch: the whole gather, unsliced
                batches = [(x, y)]
            else:
                batches = [
                    (x[..., start : start + batch_size, :], y[..., start : start + batch_size])
                    for start in range(0, size, batch_size)
                ]
            for x_batch, y_batch in batches:
                losses.append(block.train_step_gradients(x_batch, y_batch))
                optimizer.step(block)
        num_batches = len(losses)
        if num_batches == 1:  # the mean of one loss is that loss
            train_losses = losses[0]
        else:
            # One contiguous row of batch losses per user — ``(num_batches,)``
            # for a block of one — reduced as ``np.mean`` reduces it.
            per_row = np.ascontiguousarray(np.array(losses).T)
            train_losses = np.add.reduce(per_row, -1) / num_batches
        self.rounds_completed[index] += 1
        # The uploads leave as rows of one block each (one allocation, not
        # ``k``), as a process shard's reply decodes them.
        deltas = np.empty_like(params)
        uploaded = params.copy() if include_params else None
        updates = []
        for row, user in enumerate(users):
            velocity = optimizer.velocity if alone else optimizer.velocity[row].copy()
            self.velocities[user] = velocity
            updates.append(
                LocalUpdate(
                    user_id=self.lo + user,
                    delta=np.subtract(params[row], bases[row], out=deltas[row]),
                    base_version=base_versions[row],
                    num_samples=size,
                    train_loss=float(train_losses) if alone else train_losses.item(row),
                    momentum_norm=vector_norm(velocity),
                    num_batches=num_batches,
                    params=None if uploaded is None else uploaded[row],
                )
            )
        optimizer.velocity = None  # the plane's optimizer keeps no user's vector
        return updates

"""The training plane: flat parameter/gradient vectors, layer views, one workspace.

Contracts under test (``src/repro/fl/model.py``, ``optimizer.py``,
``client.py`` and ``build_clients`` in ``src/repro/sim/engine.py``):

* every layer tensor aliases its segment of the model's flat vectors, for the
  model's lifetime and across ``pickle`` / ``deepcopy``;
* the in-place round is bit for bit the flatten/unflatten round it replaced
  (``tests/oracle.py::FrozenLocalTrainer``);
* a model is a workspace, not client state: clients sharing one instance
  produce exactly the uploads of clients that each own one;
* one ``FLClient.local_train`` call over a mix of blocks of one and of
  many is, row for row, the frozen round of each client; a block of one
  runs in the model's own 2-D shapes;
* the client plane refuses what it cannot stack: a model of other layers
  than ``Linear`` / ``ReLU`` / ``Tanh``, a user without samples;
* the client plane's lazily made shuffling generators are the eager
  per-user generators: rounds, uploads and checkpointed ``rng_state`` dicts;
* a block's uploads are rows of one fresh ``(k, P)`` array (and of a second
  one for ``params``), each delta bit for bit ``params - base``, and a
  buffered one checkpoints and resumes bitwise.
"""

from __future__ import annotations

import copy
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    DataPartition,
    FrozenLocalTrainer,
    client_plane,
    evaluate_local,
    flat_grads,
    partition_batches,
    user_partitions,
    zero_grads,
)
from repro.core.policies import SyncPolicy
from repro.fl.client import BLOCK_BYTES, FLClient
from repro.fl.dataset import SyntheticCifar10, partition_iid
from repro.fl.layers import Layer, Linear, ReLU, Tanh
from repro.fl.model import Sequential, build_lenet5, build_mlp
from repro.fl.optimizer import MomentumSGD
from repro.service.checkpoint import Checkpointer, CheckpointStore, RunInterrupted
from repro.sim import engine as engine_module
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine, build_clients

KINDS = ("mlp", "lenet")
#: The models a client plane trains.
PLANE_KINDS = ("mlp", "tanh")


def _build(kind: str) -> Sequential:
    if kind == "lenet":
        return build_lenet5(in_channels=3, image_size=16, seed=3)
    if kind == "tanh":
        init = np.random.default_rng(3)
        return Sequential(
            [Linear(24, 32, rng=init), Tanh(), Linear(32, 16, rng=init), Tanh(),
             Linear(16, 10, rng=init)]
        )
    return build_mlp(input_dim=24, hidden_dims=(32, 16), seed=3)


def _partitions(kind: str, num_clients: int, num_samples: int):
    """IID shards; 233 samples over 5 clients gives 46/47-sample shards, so
    every shard ends on a ragged mini-batch of 6 or 7."""
    image_shape = (3, 16, 16) if kind == "lenet" else None
    dataset = SyntheticCifar10(
        num_train=num_samples, num_test=10, feature_dim=24, image_shape=image_shape, seed=5
    )
    x, y = dataset.train_set()
    return user_partitions(x, y, partition_iid(x, y, num_clients, np.random.default_rng(11)))


def _assert_bound(model: Sequential) -> None:
    tensors = []
    for layer, name, value in model.parameter_items():
        assert np.shares_memory(value, model.flat_params)
        assert np.shares_memory(layer.grads[name], model.flat_grads)
        assert layer.grads[name].shape == value.shape
        tensors.append((value, layer.grads[name]))
    assert np.array_equal(
        model.get_flat_params(), np.concatenate([p.ravel() for p, _ in tensors])
    )
    assert np.array_equal(
        flat_grads(model), np.concatenate([g.ravel() for _, g in tensors])
    )


def _train_steps(model: Sequential, kind: str, steps: int, seed: int = 0) -> None:
    part = _partitions(kind, 1, 40)[0]
    optimizer = MomentumSGD(learning_rate=0.05, momentum=0.9)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        for xb, yb in partition_batches(part, 20, rng=rng):
            model.train_step_gradients(xb, yb)
            optimizer.step(model)


class TestLayerViews:
    @pytest.mark.parametrize("kind", KINDS)
    def test_views_survive_training(self, kind):
        model = _build(kind)
        _assert_bound(model)
        before = model.get_flat_params()
        _train_steps(model, kind, steps=3)
        _assert_bound(model)
        assert not np.array_equal(before, model.get_flat_params())
        assert np.any(model.flat_grads != 0.0)
        model.set_flat_params(before)
        zero_grads(model)
        _assert_bound(model)
        assert np.array_equal(model.flat_params, before)
        assert not model.flat_grads.any()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))])
    def test_copies_are_bound_again_and_independent(self, kind, clone):
        model = _build(kind)
        _train_steps(model, kind, steps=1)
        restored = clone(model)
        _assert_bound(restored)
        assert not np.shares_memory(restored.flat_params, model.flat_params)
        assert np.array_equal(restored.flat_params, model.flat_params)
        assert np.array_equal(restored.flat_grads, model.flat_grads)
        # The same further step on both lands on the same bits, through the
        # restored model's own buffers.
        _train_steps(model, kind, steps=1, seed=9)
        _train_steps(restored, kind, steps=1, seed=9)
        _assert_bound(restored)
        assert np.array_equal(restored.flat_params, model.flat_params)

    @pytest.mark.parametrize("kind", KINDS)
    def test_step_overwrites_stale_gradients(self, kind):
        # A train step does not zero the gradient vector first: every
        # parametrised layer has to overwrite its segment.
        clean, stale = _build(kind), _build(kind)
        stale.flat_grads.fill(np.nan)
        _train_steps(clean, kind, steps=1)
        _train_steps(stale, kind, steps=1)
        assert np.array_equal(clean.flat_grads, stale.flat_grads)

    def test_first_layer_defining_only_backward_gets_its_gradients(self):
        # Sequential.backward asks the first layer for backward_params only.
        class Scale(Layer):
            def __init__(self):
                super().__init__()
                self.params["s"] = np.full(1, 2.0)
                self.grads["s"] = np.zeros(1)

            def forward(self, x):
                self._x = x
                return x * self.params["s"]

            def backward(self, grad_out):
                self.grads["s"][0] = np.sum(grad_out * self._x)
                return grad_out * self.params["s"]

        x, labels = np.random.default_rng(0).normal(size=(4, 6)), np.array([0, 1, 2, 1])
        model = Sequential([Scale(), Linear(6, 3, rng=np.random.default_rng(1))])
        model.train_step_gradients(x, labels)
        linear_grad = model.loss_fn.backward() @ model.layers[1].params["w"].T
        assert model.layers[0].grads["s"][0] == np.sum(linear_grad * x) != 0.0

    def test_set_flat_params_checks_length_and_never_aliases(self):
        model = _build("mlp")
        size = model.num_parameters()
        for wrong in (np.zeros(size + 1), np.zeros(size - 1), np.zeros((size, 1))):
            with pytest.raises(ValueError):
                model.set_flat_params(wrong)
        # A read-only vector, as the server's download view is.
        download = np.full(size, 0.25)
        download.setflags(write=False)
        model.set_flat_params(download)
        assert not np.shares_memory(model.flat_params, download)
        _train_steps(model, "mlp", steps=1)
        assert np.all(download == 0.25)
        assert not np.array_equal(model.flat_params, download)
        # Nor does what the model hands out alias what it keeps.
        out = model.get_flat_params()
        out[:] = 7.0
        assert not np.any(model.flat_params == 7.0)


class TestFrozenStepParity:
    @pytest.mark.parametrize("kind", PLANE_KINDS)
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_local_train_matches_frozen_round_bitwise(self, kind, momentum, weight_decay):
        num_clients = 5
        partitions = _partitions(kind, num_clients, 233)
        assert any(len(part) % 20 for part in partitions)
        workspace = _build(kind)
        clients = client_plane(partitions, workspace, momentum=momentum, seed=100)
        clients.optimizer.weight_decay = weight_decay
        frozen = []
        for user, part in enumerate(partitions):
            frozen.append(
                FrozenLocalTrainer(
                    _build(kind),
                    part,
                    momentum=momentum,
                    weight_decay=weight_decay,
                    seed=100 + user,
                )
            )
        base = workspace.get_flat_params()
        for round_number in range(3):
            deltas = []
            for user, reference in enumerate(frozen):
                (update,) = FLClient.local_train(clients, [user], [base], [round_number])
                want = reference.local_train(base)
                assert np.array_equal(update.delta, want.delta)
                assert np.array_equal(update.params, want.params)
                assert update.train_loss == want.train_loss
                assert update.momentum_norm == want.momentum_norm
                assert np.array_equal(clients.velocities[user], reference.velocity)
                assert clients.rng_state(user) == reference.rng.bit_generator.state
                # The upload owns its arrays: the next client's round in the
                # same workspace must not reach back into it.
                assert not np.shares_memory(update.params, workspace.flat_params)
                assert not np.shares_memory(update.delta, workspace.flat_params)
                deltas.append(update.delta)
            base = base + sum(deltas) / num_clients


class TestSharedWorkspace:
    @pytest.mark.parametrize("kind", PLANE_KINDS)
    def test_interleaved_shared_equals_private(self, kind):
        num_clients = 4
        partitions = _partitions(kind, num_clients, 150)
        workspace = _build(kind)
        # One plane on the shared workspace; one single-user plane per user,
        # each on its own model.
        shared = client_plane(partitions, workspace)
        private = [
            client_plane([partitions[u]], _build(kind), lo=u) for u in range(num_clients)
        ]
        bases = [workspace.get_flat_params() for _ in range(num_clients)]
        # Clients come up in a different order every round, each from its own
        # (diverging) base, so any residue one leaves in the workspace would
        # reach a different successor each time.
        for order in ([0, 1, 2, 3], [3, 1, 0, 2], [2, 2, 0, 3, 1]):
            for user in order:
                (got,) = FLClient.local_train(shared, [user], [bases[user]], [0])
                (want,) = FLClient.local_train(private[user], [0], [bases[user]], [0])
                assert got.user_id == want.user_id == user
                assert np.array_equal(got.params, want.params)
                assert np.array_equal(got.delta, want.delta)
                assert got.train_loss == want.train_loss
                assert got.momentum_norm == want.momentum_norm
                bases[user] = got.params
        for user in range(num_clients):
            assert evaluate_local(shared.model, partitions[user], bases[user]) == (
                evaluate_local(private[user].model, partitions[user], bases[user])
            )

    def test_build_clients_shares_one_workspace_per_slice(self):
        config = SimulationConfig(
            num_users=6, total_slots=10, num_train_samples=62, feature_dim=24,
            non_iid_alpha=0.5,
        )
        dataset = SyntheticCifar10(num_train=62, num_test=10, feature_dim=24, seed=5)
        x, y = dataset.train_set()
        partition = engine_module.build_partitions(config, dataset, np.random.default_rng(3))
        parts = user_partitions(x, y, partition)
        assert len({len(part) for part in parts}) > 1  # ragged shards
        clients = build_clients(config, dataset, partition, 2, 5)
        assert (clients.lo, len(clients)) == (2, 3)
        assert clients.offsets.tolist() == [0] + np.cumsum(
            [len(part) for part in parts[2:5]]
        ).tolist()
        for local, part in enumerate(parts[2:5]):
            rows = clients.order[clients.offsets[local] : clients.offsets[local + 1]]
            assert clients.x[rows].tobytes() == part.x.tobytes()
            assert clients.y[rows].tobytes() == part.y.tobytes()
        # The dataset's own arrays are read, and only the slice's order is held.
        assert clients.x is x and clients.y is y
        assert len(clients.order) == sum(len(part) for part in parts[2:5])

    def test_a_model_it_cannot_stack_is_refused(self, monkeypatch):
        x, y = np.zeros((4, 24)), np.zeros(4, dtype=np.int64)
        noisy = Sequential(
            [Linear(24, 8), ReLU(), _Noise(np.random.default_rng(0)), Linear(8, 10)]
        )
        for model in (_build("lenet"), noisy):
            with pytest.raises(ValueError, match="Linear / ReLU / Tanh"):
                FLClient(x, y, np.arange(4), np.array([0, 2, 4]), model)
        # The engine builds its planes through the same refusal.
        monkeypatch.setattr(engine_module, "build_eval_model", lambda config, input_dim: noisy)
        config = SimulationConfig(num_users=2, total_slots=10, num_train_samples=20)
        with pytest.raises(ValueError, match="Linear / ReLU / Tanh"):
            build_clients(
                config, SyntheticCifar10(num_train=20, num_test=10, feature_dim=24),
                partition_iid(np.zeros((20, 1)), np.zeros(20), 2, np.random.default_rng(0)),
            )

    @pytest.mark.parametrize("offsets", [[0, 0, 4], [0, 2, 2, 4], [0, 4, 4]])
    def test_a_user_without_samples_is_refused(self, offsets):
        x, y = np.zeros((4, 24)), np.zeros(4, dtype=np.int64)
        with pytest.raises(ValueError, match="no user without samples"):
            FLClient(x, y, np.arange(4), np.array(offsets), _build("mlp"))


class _Noise(Layer):
    """A layer drawing from a generator of its own, as a dropout layer does."""

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__()
        self._rng = rng

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x + self._rng.normal(size=x.shape)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


# ---------------------------------------------------------------------------
# Stacked blocks
# ---------------------------------------------------------------------------

#: 7 658 parameters: a 61 KB row, so the budget cuts blocks of four.
_WIDE = dict(input_dim=24, hidden_dims=(128, 32))
_CHUNK = BLOCK_BYTES // (8 * build_mlp(**_WIDE).num_parameters())


#: One client's knobs: (model, samples, batch size, epochs, lr, momentum,
#: weight decay).  Sample counts leave ragged last batches.
_client_spec = st.tuples(
    st.sampled_from(["mlp", "tanh"]),
    st.sampled_from([1, 3, 7, 23]),
    st.sampled_from([5, 20]),
    st.sampled_from([1, 2]),
    st.sampled_from([0.05, 0.01]),
    st.sampled_from([0.0, 0.9]),
    st.sampled_from([0.0, 0.01]),
)


class TestStackedBlocks:
    def test_the_budget_cuts_blocks_of_four(self):
        assert _CHUNK == 4

    def test_a_stacked_copy_leaves_its_source_bound(self):
        model = _build("mlp")
        block = model.stacked(3)
        _assert_bound(model)
        assert block.flat_params.shape == block.flat_grads.shape == (3, model.num_parameters())
        for (layer, name, value), (source, _, original) in zip(
            block.parameter_items(), model.parameter_items()
        ):
            assert layer.grads[name].shape == (3,) + original.shape
            assert value.size == 3 * original.size and value.shape[-1] == original.shape[-1]
            assert np.shares_memory(value, block.flat_params)
            assert np.shares_memory(layer.grads[name], block.flat_grads)
            assert not np.shares_memory(value, model.flat_params)
            assert layer is not source

    def test_a_block_of_one_is_the_model_itself(self):
        model = _build("mlp")
        assert model.stacked(1) is model
        assert model.flat_momentum is None  # a round steps the user's own vector
        # Larger blocks, which grow the block memory, leave it as it was.
        assert model.stacked(3).flat_momentum.shape == (3, model.num_parameters())
        assert model.stacked(1) is model and model.flat_momentum is None
        _assert_bound(model)
        loss = model.stacked(1).train_step_gradients(
            np.zeros((7, 24)), np.zeros(7, dtype=np.int64)
        )
        assert type(loss) is float

    def test_a_block_of_one_steps_the_users_own_momentum(self):
        plane = client_plane(_partitions("mlp", 2, 40), _build("mlp"))
        assert plane.num_samples(0) == plane.num_samples(1)
        base = plane.model.get_flat_params()
        FLClient.local_train(plane, [0], [base], [0])
        first = plane.velocities[0]
        FLClient.local_train(plane, [0], [base], [1])
        assert np.shares_memory(plane.velocities[0], first)  # stepped in place
        _, lent = plane.checkpoint_state()
        held = lent[0].copy()
        FLClient.local_train(plane, [0], [base], [2])
        assert not np.shares_memory(plane.velocities[0], first)  # copied on write
        assert plane.velocities[0].flags.writeable
        assert lent[0].tobytes() == held.tobytes()
        FLClient.local_train(plane, [0, 1], [base, base], [3, 3])
        rows = plane.model.stacked(2).flat_momentum
        assert not any(np.shares_memory(v, rows) for v in plane.velocities)
        assert plane.optimizer.velocity is None  # it held the rows for the round only

    @settings(max_examples=50, deadline=None)
    @given(
        specs=st.lists(_client_spec, min_size=1, max_size=12),
        shared=st.integers(0, 2 * _CHUNK + 1),
        include_params=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_one_call_equals_the_frozen_round_per_client(
        self, specs, shared, include_params, seed
    ):
        """Clients given by ``specs`` plus ``shared`` clients of one knob set
        (a group from none to past two blocks), shuffled together; the users
        of one knob set form one plane, of mixed sample counts.  A first
        call per plane trains some of them and some planes lend their
        velocities to a snapshot; a second trains all of them, each from its
        own base."""
        rng = np.random.default_rng(seed)
        specs = list(specs) + [("mlp", 7, 5, 1, 0.05, 0.9, 0.0)] * shared
        specs = [specs[index] for index in rng.permutation(len(specs))]
        models = {
            "mlp": build_mlp(**_WIDE, seed=1),
            "tanh": Sequential(
                [Linear(24, 32, rng=np.random.default_rng(2)), Tanh(),
                 Linear(32, 10, rng=np.random.default_rng(3))]
            ),
        }
        members = {}  # knob set -> its users, in plane order
        for user, (kind, size, *knobs) in enumerate(specs):
            members.setdefault((kind, *knobs), []).append(user)
        planes, place, frozen = {}, {}, [None] * len(specs)
        for number, (key, users) in enumerate(members.items()):
            kind, batch, epochs, lr, momentum, decay = key
            parts = []
            for local, user in enumerate(users):
                size = specs[user][1]
                data = DataPartition(user, rng.normal(size=(size, 24)), rng.integers(0, 10, size))
                parts.append(data)
                place[user] = (key, local)
                frozen[user] = FrozenLocalTrainer(
                    copy.deepcopy(models[kind]), data, learning_rate=lr, momentum=momentum, weight_decay=decay,
                    batch_size=batch, local_epochs=epochs, seed=seed + 100 * number + local,
                )
            planes[key] = client_plane(
                parts, models[kind], lo=10 * number, learning_rate=lr, momentum=momentum,
                batch_size=batch, local_epochs=epochs,
                seed=seed + 90 * number,  # user lo + i draws from seed + 100 * number + i
            )
            planes[key].optimizer.weight_decay = decay
        blocks = []
        real_block = FLClient._train_block

        def spy(plane, users, *args):
            blocks.append(len(users))
            return real_block(plane, users, *args)

        def train(users):
            """One call per plane, in plane order."""
            for key, plane in planes.items():
                mine = [user for user in users if place[user][0] == key]
                if not mine:
                    continue
                model = plane.model
                downloads = [
                    model.get_flat_params()
                    + rng.normal(scale=0.05, size=model.num_parameters())
                    for _ in mine
                ]
                for base in downloads:
                    base.setflags(write=False)  # as the server's download view is
                with mock.patch.object(FLClient, "_train_block", spy):
                    updates = FLClient.local_train(
                        plane,
                        [place[user][1] for user in mine],
                        downloads,
                        [100 + user for user in mine],
                        include_params=include_params,
                    )
                assert len(updates) == len(mine)
                for user, base, update in zip(mine, downloads, updates):
                    local, reference = place[user][1], frozen[user]
                    want = reference.local_train(base)
                    assert update.user_id == plane.lo + local
                    assert update.base_version == 100 + user
                    assert update.num_samples == plane.num_samples(local) == specs[user][1]
                    assert update.delta.tobytes() == want.delta.tobytes()
                    if include_params:
                        assert update.params.tobytes() == want.params.tobytes()
                    else:
                        assert update.params is None
                    assert type(update.train_loss) is float
                    assert float(update.train_loss).hex() == float(want.train_loss).hex()
                    assert type(update.momentum_norm) is float
                    velocity = plane.velocities[local]
                    assert update.momentum_norm == want.momentum_norm
                    assert update.momentum_norm == float(np.linalg.norm(velocity))
                    assert velocity.tobytes() == reference.velocity.tobytes()
                    assert velocity.flags.writeable
                    assert plane.rng_state(local) == reference.rng.bit_generator.state

        first = [user for user in range(len(specs)) if rng.random() < 0.6]
        train(first)
        lent = []
        for plane in planes.values():
            if rng.random() < 0.5:
                clients, velocities = plane.checkpoint_state()
                for local, (client, velocity) in enumerate(zip(clients, velocities)):
                    assert client["rng_state"] == plane.rng_state(local)
                    if velocity is not None:
                        lent.append((velocity, velocity.copy()))
        train(list(range(len(specs))))
        for user in range(len(specs)):
            key, local = place[user]
            assert planes[key].rounds_completed[local] == 1 + (user in first)
        for velocity, held in lent:
            assert not velocity.flags.writeable
            assert velocity.tobytes() == held.tobytes()
        assert all(1 <= size <= _CHUNK for size in blocks)
        if shared >= 2:
            assert max(blocks) >= 2


# ---------------------------------------------------------------------------
# Upload blocks
# ---------------------------------------------------------------------------


def _equal_plane():
    """Six users of 10 samples each: one group, cut into blocks of 4 and 2."""
    return client_plane(_partitions("mlp", 6, 60), build_mlp(**_WIDE, seed=1))


class TestUploadBlocks:
    """A block's uploads leave as rows of one fresh ``(k, P)`` array each."""

    @pytest.mark.parametrize("include_params", [False, True])
    def test_a_blocks_uploads_share_one_allocation(self, include_params):
        plane = _equal_plane()
        base = plane.model.get_flat_params()
        bases = [base + 0.01 * user for user in range(6)]
        updates = FLClient.local_train(
            plane, list(range(6)), bases, [0] * 6, include_params=include_params
        )
        for field in ("delta", "params") if include_params else ("delta",):
            owners = [getattr(update, field).base for update in updates]
            assert [owner.shape for owner in owners] == [(4, base.size)] * 4 + [(2, base.size)] * 2
            assert all(owner is owners[0] for owner in owners[:4])
            assert all(owner is owners[4] for owner in owners[4:])
            for row, update in enumerate(updates):
                assert np.shares_memory(getattr(update, field), owners[row][row % 4])
                assert not np.shares_memory(owners[row], plane.model.stacked(4).flat_params)
        if include_params:
            assert not np.shares_memory(updates[0].params, updates[0].delta.base)
        else:
            assert all(update.params is None for update in updates)

    def test_a_block_of_one_uploads_a_private_row(self):
        plane = _equal_plane()
        base = plane.model.get_flat_params()
        (update,) = FLClient.local_train(plane, [0], [base], [0], include_params=True)
        assert update.delta.base.shape == update.params.base.shape == (1, base.size)
        assert not np.shares_memory(update.delta, plane.model.flat_params)
        assert not np.shares_memory(update.params, plane.model.flat_params)

    def test_each_delta_is_params_minus_base_bitwise(self):
        full, lean = _equal_plane(), _equal_plane()
        base = full.model.get_flat_params()
        bases = [base * (1.0 + 0.1 * user) for user in range(6)]
        with_params = FLClient.local_train(full, list(range(6)), bases, [0] * 6, True)
        delta_only = FLClient.local_train(lean, list(range(6)), bases, [0] * 6, False)
        for got, want, start in zip(delta_only, with_params, bases):
            assert want.delta.tobytes() == (want.params - start).tobytes()
            assert got.delta.tobytes() == want.delta.tobytes()

    def test_a_buffered_sync_upload_survives_save_load_and_resume(self, tmp_path):
        """Users 0 and 3 finish in one slot and wait in ``sync_buffer`` as
        two rows of one block when slot 225's snapshot is taken."""
        config = SimulationConfig(
            num_users=6, total_slots=300, app_arrival_prob=0.01, seed=7,
            num_train_samples=360, num_test_samples=60, hidden_dims=(8,),
            eval_interval_slots=100, trace_interval_slots=10,
        )
        reference = SimulationEngine(config, SyncPolicy())
        result = reference.run()
        engine = SimulationEngine(config, SyncPolicy())
        buffered = {}

        def sink(checkpoint):
            buffered.update(engine.core.sync_buffer)
            CheckpointStore(tmp_path).save(checkpoint)
            checkpointer.request_stop()

        checkpointer = Checkpointer(sink, at_slots=[225])
        with pytest.raises(RunInterrupted):
            engine.run(checkpointer)
        assert buffered[0].delta.base is buffered[3].delta.base
        assert buffered[0].delta.base.shape[0] == 2
        loaded = CheckpointStore(tmp_path).load()
        restored = loaded.coordinator.materialize().sync_buffer
        assert sorted(restored) == sorted(buffered)
        for user, update in buffered.items():
            assert restored[user].delta.tobytes() == update.delta.tobytes()
        resumed = SimulationEngine.restore(loaded)
        again = resumed.run()
        assert again.total_energy_j() == result.total_energy_j()
        assert again.num_updates == result.num_updates
        assert resumed.server.global_params().tobytes() == reference.server.global_params().tobytes()
        assert resumed.server.updates.rows() == reference.server.updates.rows()

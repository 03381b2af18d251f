"""The training plane: flat parameter/gradient vectors, layer views, one workspace.

Contracts under test (``src/repro/fl/model.py``, ``optimizer.py``,
``client.py`` and ``build_clients`` in ``src/repro/sim/engine.py``):

* every layer tensor aliases its segment of the model's flat vectors, for the
  model's lifetime and across ``pickle`` / ``deepcopy``;
* the in-place round is bit for bit the flatten/unflatten round it replaced
  (``tests/oracle.py::FrozenLocalTrainer``);
* a model is a workspace, not client state: clients sharing one instance
  produce exactly the uploads of clients that each own one.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from oracle import FrozenLocalTrainer, partition_batches
from repro.fl.client import FLClient
from repro.fl.dataset import SyntheticCifar10, partition_iid
from repro.fl.layers import Dropout, Layer, Linear, ReLU
from repro.fl.model import Sequential, build_lenet5, build_mlp
from repro.fl.optimizer import MomentumSGD
from repro.sim import engine as engine_module
from repro.sim.config import SimulationConfig
from repro.sim.engine import build_clients

KINDS = ("mlp", "lenet")


def _build(kind: str) -> Sequential:
    if kind == "lenet":
        return build_lenet5(in_channels=3, image_size=16, seed=3)
    return build_mlp(input_dim=24, hidden_dims=(32, 16), seed=3)


def _partitions(kind: str, num_clients: int, num_samples: int):
    """IID shards; 233 samples over 5 clients gives 46/47-sample shards, so
    every shard ends on a ragged mini-batch of 6 or 7."""
    image_shape = (3, 16, 16) if kind == "lenet" else None
    dataset = SyntheticCifar10(
        num_train=num_samples, num_test=10, feature_dim=24, image_shape=image_shape, seed=5
    )
    return partition_iid(
        dataset.x_train, dataset.y_train, num_clients, np.random.default_rng(11)
    )


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
        model.get_flat_grads(), np.concatenate([g.ravel() for _, g in tensors])
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
        model.zero_grads()
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
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_local_train_matches_frozen_round_bitwise(self, kind, momentum, weight_decay):
        num_clients = 5
        partitions = _partitions(kind, num_clients, 233)
        assert any(len(part) % 20 for part in partitions)
        workspace = _build(kind)
        clients, frozen = [], []
        for user, part in enumerate(partitions):
            client = FLClient(user, part, workspace, momentum=momentum, seed=100 + user)
            client.optimizer.weight_decay = weight_decay
            clients.append(client)
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
            for client, reference in zip(clients, frozen):
                update = client.local_train(base, round_number)
                want = reference.local_train(base)
                assert np.array_equal(update.delta, want.delta)
                assert np.array_equal(update.params, want.params)
                assert update.train_loss == want.train_loss
                assert update.momentum_norm == want.momentum_norm
                assert np.array_equal(client.optimizer.velocity, reference.velocity)
                assert client._rng.bit_generator.state == reference.rng.bit_generator.state
                # The upload owns its arrays: the next client's round in the
                # same workspace must not reach back into it.
                assert not np.shares_memory(update.params, workspace.flat_params)
                assert not np.shares_memory(update.delta, workspace.flat_params)
                deltas.append(update.delta)
            base = base + sum(deltas) / num_clients


class TestSharedWorkspace:
    @pytest.mark.parametrize("kind", KINDS)
    def test_interleaved_shared_equals_private(self, kind):
        num_clients = 4
        partitions = _partitions(kind, num_clients, 150)
        workspace = _build(kind)
        shared = [FLClient(u, partitions[u], workspace, seed=u) for u in range(num_clients)]
        private = [FLClient(u, partitions[u], _build(kind), seed=u) for u in range(num_clients)]
        bases = [workspace.get_flat_params() for _ in range(num_clients)]
        # Clients come up in a different order every round, each from its own
        # (diverging) base, so any residue one leaves in the workspace would
        # reach a different successor each time.
        for order in ([0, 1, 2, 3], [3, 1, 0, 2], [2, 2, 0, 3, 1]):
            for user in order:
                got = shared[user].local_train(bases[user], 0)
                want = private[user].local_train(bases[user], 0)
                assert np.array_equal(got.params, want.params)
                assert np.array_equal(got.delta, want.delta)
                assert got.train_loss == want.train_loss
                assert got.momentum_norm == want.momentum_norm
                bases[user] = got.params
        for user in range(num_clients):
            assert shared[user].evaluate_local(bases[user]) == private[user].evaluate_local(
                bases[user]
            )

    def test_build_clients_shares_one_workspace_per_slice(self):
        config = SimulationConfig(num_users=6, total_slots=10, num_train_samples=60)
        partitions = _partitions("mlp", 6, 60)
        clients = build_clients(config, partitions, 24, 2, 5)
        assert [client.user_id for client in clients] == [2, 3, 4]
        assert len({id(client.model) for client in clients}) == 1
        assert len({id(client.optimizer) for client in clients}) == 3

    def test_dropout_is_refused(self, monkeypatch):
        model = Sequential(
            [Linear(24, 8), ReLU(), Dropout(0.3, rng=np.random.default_rng(0)), Linear(8, 10)]
        )
        monkeypatch.setattr(engine_module, "build_eval_model", lambda config, input_dim: model)
        config = SimulationConfig(num_users=2, total_slots=10, num_train_samples=20)
        with pytest.raises(ValueError, match="Dropout"):
            build_clients(config, _partitions("mlp", 2, 20), 24)

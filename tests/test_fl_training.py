"""Tests for the optimizer, FL client, parameter server and metrics."""

import numpy as np
import pytest

from oracle import apply_to_vector, client_plane, evaluate_local, user_partitions
from reference_loop import estimate_lag
from repro.fl.client import FLClient, LocalUpdate
from repro.fl.dataset import SyntheticCifar10, partition_iid
from repro.fl.metrics import AccuracyTracker, evaluate_model, time_to_accuracy
from repro.fl.model import build_mlp
from repro.fl.optimizer import MomentumSGD
from repro.fl.server import AsyncUpdateRule, ParameterServer


@pytest.fixture()
def small_dataset():
    return SyntheticCifar10(num_train=200, num_test=80, feature_dim=16,
                            class_separation=2.5, clusters_per_class=1,
                            label_noise=0.0, seed=0)


@pytest.fixture()
def parts(small_dataset, rng):
    x, y = small_dataset.train_set()
    return user_partitions(x, y, partition_iid(x, y, 4, rng))


@pytest.fixture()
def client(parts):
    """A plane of the first user alone."""
    model = build_mlp(input_dim=16, hidden_dims=(16,), num_classes=10, seed=0)
    return client_plane(parts[:1], model, learning_rate=0.05, momentum=0.9,
                        batch_size=10, seed=0)


class TestMomentumSGD:
    def test_matches_eq1_closed_form(self):
        """One step must equal v = beta*v + (1-beta)*g, theta -= eta*v."""
        optimizer = MomentumSGD(learning_rate=0.1, momentum=0.5)
        params = np.array([1.0, -2.0])
        grads = np.array([0.5, 0.5])
        updated = apply_to_vector(optimizer, params, grads)
        expected_v = 0.5 * np.zeros(2) + 0.5 * grads
        assert np.allclose(updated, params - 0.1 * expected_v)
        updated2 = apply_to_vector(optimizer, updated, grads)
        expected_v2 = 0.5 * expected_v + 0.5 * grads
        assert np.allclose(updated2, updated - 0.1 * expected_v2)

    def test_zero_momentum_is_plain_sgd(self):
        optimizer = MomentumSGD(learning_rate=0.2, momentum=0.0)
        params = np.array([1.0])
        grads = np.array([2.0])
        assert np.allclose(apply_to_vector(optimizer, params, grads), [0.6])

    def test_velocity_norm_tracks_state(self):
        optimizer = MomentumSGD(learning_rate=0.1, momentum=0.9)
        assert optimizer.velocity_norm() == 0.0
        apply_to_vector(optimizer, np.zeros(3), np.ones(3))
        assert optimizer.velocity_norm() > 0.0
        optimizer.velocity = None
        assert optimizer.velocity_norm() == 0.0

    def test_a_borrowed_velocity_is_stepped_in_place(self):
        optimizer = MomentumSGD(learning_rate=0.1, momentum=0.5)
        velocity = np.ones(4)
        optimizer.velocity = velocity
        apply_to_vector(optimizer, np.zeros(4), np.full(4, 3.0))
        assert optimizer.velocity is velocity
        assert np.array_equal(velocity, np.full(4, 2.0))

    def test_load_rows_copies_into_a_block_and_borrows_without_one(self):
        optimizer = MomentumSGD(learning_rate=0.1, momentum=0.5)
        lent, block = np.ones(3), np.full((2, 3), np.nan)
        optimizer.load_rows([lent, None], block)
        assert optimizer.velocity is block
        assert np.array_equal(block, [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        block[0] = 7.0
        assert np.array_equal(lent, np.ones(3))  # only read
        optimizer.load_rows([lent], None)
        assert optimizer.velocity is lent
        optimizer.load_rows([None], None)
        assert optimizer.velocity is None

    def test_weight_decay_shrinks_params(self):
        plain = MomentumSGD(learning_rate=0.1, momentum=0.0)
        decayed = MomentumSGD(learning_rate=0.1, momentum=0.0, weight_decay=0.1)
        params = np.array([10.0])
        grads = np.array([0.0])
        assert apply_to_vector(decayed, params, grads)[0] < apply_to_vector(plain, params, grads)[0]

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            MomentumSGD(learning_rate=0.0)
        with pytest.raises(ValueError):
            MomentumSGD(momentum=1.0)
        with pytest.raises(ValueError):
            MomentumSGD(weight_decay=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("knob", ["learning_rate", "weight_decay"])
    def test_non_finite_rates_are_refused(self, knob, value):
        with pytest.raises(ValueError, match=f"{knob} must be finite"):
            MomentumSGD(**{knob: value})

    def test_step_updates_model_params(self, rng):
        model = build_mlp(input_dim=6, hidden_dims=(4,), num_classes=3, seed=0)
        optimizer = MomentumSGD(learning_rate=0.1)
        before = model.get_flat_params()
        model.train_step_gradients(rng.normal(size=(8, 6)), rng.integers(0, 3, size=8))
        optimizer.step(model)
        assert not np.allclose(before, model.get_flat_params())

    def test_lent_velocity_is_read_only_and_copied_on_write(self):
        lender = MomentumSGD(learning_rate=0.1, momentum=0.9)
        keeper = MomentumSGD(learning_rate=0.1, momentum=0.9)
        params, grads = np.array([1.0, -2.0, 3.0]), np.array([0.5, -0.25, 1.0])
        for optimizer in (lender, keeper):
            apply_to_vector(optimizer, params, grads)
        lent = lender.velocity
        lent.flags.writeable = False  # what a snapshot's loan does
        held = lent.copy()
        assert not lent.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            lent[0] = np.nan
        # The next step continues on a private, writable copy; the lent array
        # keeps its bits and lending changes nothing downstream.
        stepped = apply_to_vector(lender, params, grads)
        assert lender.velocity is not lent and lender.velocity.flags.writeable
        assert np.array_equal(lent, held)
        assert np.array_equal(stepped, apply_to_vector(keeper, params, grads))
        assert np.array_equal(lender.velocity, keeper.velocity)


class TestFLClient:
    def test_local_train_returns_update(self, client):
        base = client.model.get_flat_params()
        (update,) = FLClient.local_train(client, [0], [base], [3])
        assert isinstance(update, LocalUpdate)
        assert update.user_id == 0
        assert update.base_version == 3
        assert update.num_samples == client.num_samples(0) == 50
        assert update.num_batches > 0
        assert update.params.shape == base.shape
        assert np.allclose(update.delta, update.params - base)

    def test_momentum_persists_across_rounds(self, client):
        base = client.model.get_flat_params()
        assert client.velocities[0] is None
        (first,) = FLClient.local_train(client, [0], [base], [0])
        assert first.momentum_norm > 0.0
        assert first.momentum_norm == float(np.linalg.norm(client.velocities[0]))
        assert client.rounds_completed[0] == 1
        held = client.velocities[0].copy()
        FLClient.local_train(client, [0], [base], [0])
        assert client.rounds_completed[0] == 2
        assert not np.array_equal(client.velocities[0], held)

    def test_training_starts_from_supplied_global(self, client):
        global_params = np.zeros_like(client.model.get_flat_params())
        (update,) = FLClient.local_train(client, [0], [global_params], [0])
        # The update must be a perturbation of the supplied global model, not
        # of whatever the client model held before.
        assert np.linalg.norm(update.params) < 10.0

    def test_local_accuracy_improves(self, client, parts):
        base = client.model.get_flat_params()
        params = base
        for _ in range(20):
            (update,) = FLClient.local_train(client, [0], [params], [0])
            params = update.params
        assert evaluate_local(client.model, parts[0], params) > 0.5

    def test_invalid_construction(self, parts):
        model = build_mlp(input_dim=16, hidden_dims=(4,), num_classes=10)
        with pytest.raises(ValueError):
            client_plane(parts, model, batch_size=0)
        with pytest.raises(ValueError):
            client_plane(parts, model, local_epochs=0)
        x, y = parts[0].x, parts[0].y
        order = np.arange(len(x))
        for offsets in ([0, 20, 49], [0, 30, 20, 50], [1, 50], []):
            with pytest.raises(ValueError, match="offsets"):
                FLClient(x, y, order, np.array(offsets), model)
        with pytest.raises(ValueError, match="offsets"):
            FLClient(x, y[:-1], order, np.array([0, 50]), model)
        with pytest.raises(ValueError, match="offsets"):
            FLClient(x, y, order[:-1], np.array([0, 50]), model)


class TestParameterServer:
    def _update(self, user, base, params, base_version=0):
        return LocalUpdate(
            user_id=user,
            params=params,
            delta=params - base,
            base_version=base_version,
            num_samples=10,
            train_loss=1.0,
            momentum_norm=0.5,
            num_batches=5,
        )

    def test_download_records_version(self):
        server = ParameterServer(np.zeros(4))
        server.download_block((3,))
        assert server.downloaded_version(3) == 0
        assert server.downloaded_version(9) is None

    def test_accumulate_rule_applies_delta(self):
        base = np.zeros(4)
        server = ParameterServer(base, async_rule=AsyncUpdateRule.ACCUMULATE)
        server.async_update(self._update(0, base, np.ones(4)), time_s=1.0)
        server.async_update(self._update(1, base, np.full(4, 2.0)), time_s=2.0)
        assert np.allclose(server.global_params(), 3.0)
        assert server.version == 2

    def test_replace_rule_overwrites(self):
        base = np.zeros(4)
        server = ParameterServer(base, async_rule=AsyncUpdateRule.REPLACE)
        server.async_update(self._update(0, base, np.ones(4)), time_s=1.0)
        server.async_update(self._update(1, base, np.full(4, 2.0)), time_s=2.0)
        assert np.allclose(server.global_params(), 2.0)

    def test_mixing_rule(self):
        base = np.zeros(2)
        server = ParameterServer(base, async_rule=AsyncUpdateRule.MIXING, mixing_alpha=0.5)
        server.async_update(self._update(0, base, np.full(2, 4.0)), time_s=0.0)
        assert np.allclose(server.global_params(), 2.0)

    def test_staleness_weighted_rule_downweights_stale_updates(self):
        base = np.zeros(2)
        fresh = ParameterServer(base, async_rule=AsyncUpdateRule.STALENESS_WEIGHTED, mixing_alpha=0.8)
        fresh.async_update(self._update(0, base, np.full(2, 1.0), base_version=0), time_s=0.0)
        value_fresh = fresh.global_params()[0]

        stale = ParameterServer(base, async_rule=AsyncUpdateRule.STALENESS_WEIGHTED, mixing_alpha=0.8)
        # Simulate two earlier updates so the next one has lag 2.
        stale.async_update(self._update(1, base, base.copy(), base_version=0), time_s=0.0)
        stale.async_update(self._update(2, base, base.copy(), base_version=0), time_s=0.0)
        stale.async_update(self._update(0, base, np.full(2, 1.0), base_version=0), time_s=1.0)
        assert stale.global_params()[0] < value_fresh

    def test_lag_computation(self):
        server = ParameterServer(np.zeros(2))
        base = np.zeros(2)
        assert server.lag_of(0) == 0
        server.async_update(self._update(0, base, np.ones(2)), time_s=0.0)
        server.async_update(self._update(1, base, np.ones(2)), time_s=0.0)
        assert server.lag_of(0) == 2
        with pytest.raises(ValueError):
            server.lag_of(5)

    def test_sync_round_weighted_average(self):
        base = np.zeros(2)
        server = ParameterServer(base)
        updates = [
            LocalUpdate(0, delta=np.full(2, 2.0), params=np.full(2, 2.0), base_version=0,
                        num_samples=30, train_loss=1.0, momentum_norm=0.0, num_batches=1),
            LocalUpdate(1, delta=np.full(2, 8.0), params=np.full(2, 8.0), base_version=0,
                        num_samples=10, train_loss=1.0, momentum_norm=0.0, num_batches=1),
        ]
        records = server.sync_round(updates, time_s=5.0)
        assert np.allclose(server.global_params(), 3.5)
        assert server.version == 2
        assert all(r.sync_round for r in records)

    def test_sync_round_requires_updates(self):
        server = ParameterServer(np.zeros(2))
        with pytest.raises(ValueError):
            server.sync_round([], time_s=0.0)

    def test_inflight_lag_estimation(self):
        server = ParameterServer(np.zeros(2))
        server.register_inflight_block((1,), (50.0,))
        server.register_inflight_block((2,), (300.0,))
        server.register_inflight_block((3,), (120.0,))
        # A job by user 0 lasting 200 s should see users 1 and 3 finish first.
        assert estimate_lag(server, 0, 0.0, 200.0) == 2
        # The requesting user's own job never counts.
        assert estimate_lag(server, 1, 0.0, 200.0) == 1
        server.unregister_inflight(1)
        assert estimate_lag(server, 0, 0.0, 200.0) == 1
        with pytest.raises(ValueError):
            estimate_lag(server, 0, 0.0, 0.0)

    def test_update_log_histories(self):
        base = np.zeros(2)
        server = ParameterServer(base)
        server.async_update(self._update(0, base, np.ones(2)), time_s=1.0, gradient_gap=0.7)
        assert server.lag_history() == [0]
        assert server.gap_history() == [0.7]

    def test_shape_and_alpha_validation(self):
        with pytest.raises(ValueError):
            ParameterServer(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ParameterServer(np.zeros(2), mixing_alpha=0.0)
        server = ParameterServer(np.zeros(2))
        with pytest.raises(ValueError):
            server.async_update(self._update(0, np.zeros(3), np.ones(3)), time_s=0.0)


class TestMetrics:
    def test_evaluate_model_perfect_separation(self, small_dataset):
        model = build_mlp(input_dim=16, hidden_dims=(32,), num_classes=10, seed=0)
        optimizer = MomentumSGD(learning_rate=0.1, momentum=0.9)
        x, y = small_dataset.train_set()
        for _ in range(80):
            model.train_step_gradients(x, y)
            optimizer.step(model)
        accuracy, loss = evaluate_model(model, *small_dataset.test_set())
        assert accuracy > 0.8
        assert loss < 1.5

    def test_evaluate_model_empty_set_rejected(self):
        model = build_mlp(input_dim=4, hidden_dims=(4,), num_classes=2)
        with pytest.raises(ValueError):
            evaluate_model(model, np.zeros((0, 4)), np.zeros(0, dtype=int))

    def test_tracker_records_and_queries(self):
        tracker = AccuracyTracker()
        tracker.record(0.0, 0.1, 2.3, 0)
        tracker.record(100.0, 0.4, 1.8, 10)
        tracker.record(200.0, 0.55, 1.5, 20)
        assert tracker.final_accuracy() == pytest.approx(0.55)
        assert tracker.best_accuracy() == pytest.approx(0.55)
        assert tracker.time_to_accuracy(0.4) == pytest.approx(100.0)
        assert tracker.time_to_accuracy(0.9) is None

    def test_tracker_rejects_time_regression(self):
        tracker = AccuracyTracker()
        tracker.record(10.0, 0.2, 2.0, 1)
        with pytest.raises(ValueError):
            tracker.record(5.0, 0.3, 1.9, 2)

    def test_time_to_accuracy_standalone(self):
        assert time_to_accuracy([0, 10, 20], [0.1, 0.5, 0.6], 0.5) == 10.0
        assert time_to_accuracy([0, 10], [0.1, 0.2], 0.5) is None
        with pytest.raises(ValueError):
            time_to_accuracy([0, 10], [0.1], 0.5)

    def test_empty_tracker_defaults(self):
        tracker = AccuracyTracker()
        assert tracker.final_accuracy() == 0.0
        assert tracker.best_accuracy() == 0.0

"""Batched multi-client training backend: equivalence, memory, profiling.

The contract under test (see ``src/repro/fl/batch.py``): executing many
clients' concurrent local rounds as one stacked tensor program produces,
per client, the same updated parameters, train losses, momentum state and
RNG trajectory as serial ``FLClient.local_train`` calls — to tight
numerical tolerance — and full simulation runs driven by the batched
backend reproduce the serial runs' decision, queue and energy traces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.offline import OfflinePolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import ImmediatePolicy, SyncPolicy
from repro.fl.batch import BatchTrainer, TrainRequest
from repro.fl.client import FLClient
from repro.fl.dataset import SyntheticCifar10, partition_dirichlet, partition_iid
from repro.fl.layers import Dropout, Linear, ReLU
from repro.fl.model import Sequential, build_lenet5, build_mlp
from repro.fl.server import AsyncUpdateRule, ParameterServer
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine

RTOL = 1e-9
ATOL = 1e-12


def _make_clients(
    num_clients: int,
    num_samples: int,
    dirichlet: bool = False,
    lenet: bool = False,
    batch_size: int = 20,
    local_epochs: int = 1,
    dropout: bool = False,
    seed: int = 0,
):
    """Two identical client fleets would diverge only through training."""
    image_shape = (3, 16, 16) if lenet else None
    dataset = SyntheticCifar10(
        num_train=num_samples, num_test=40, feature_dim=24, image_shape=image_shape, seed=seed
    )
    rng = np.random.default_rng(seed + 17)
    if dirichlet:
        partitions = partition_dirichlet(
            dataset.x_train, dataset.y_train, num_clients, rng, alpha=0.3, num_classes=10
        )
    else:
        partitions = partition_iid(dataset.x_train, dataset.y_train, num_clients, rng)

    def build_model():
        if lenet:
            return build_lenet5(in_channels=3, image_size=16, seed=seed)
        if dropout:
            model_rng = np.random.default_rng(seed)
            return Sequential(
                [
                    Linear(24, 32, rng=model_rng),
                    ReLU(),
                    Dropout(0.3, rng=np.random.default_rng(seed + 3)),
                    Linear(32, 10, rng=model_rng),
                ]
            )
        return build_mlp(input_dim=24, hidden_dims=(32, 16), seed=seed)

    return [
        FLClient(
            user_id=user,
            partition=partitions[user],
            model=build_model(),
            batch_size=batch_size,
            local_epochs=local_epochs,
            seed=100 + user,
        )
        for user in range(num_clients)
    ]


def _assert_round_parity(serial_updates, batched_updates):
    for serial, batched in zip(serial_updates, batched_updates):
        assert serial.user_id == batched.user_id
        assert serial.num_samples == batched.num_samples
        assert serial.num_batches == batched.num_batches
        assert np.allclose(serial.params, batched.params, rtol=RTOL, atol=ATOL)
        assert np.allclose(serial.delta, batched.delta, rtol=RTOL, atol=ATOL)
        assert serial.train_loss == pytest.approx(batched.train_loss, rel=RTOL, abs=ATOL)
        assert serial.momentum_norm == pytest.approx(batched.momentum_norm, rel=RTOL, abs=ATOL)


class TestBatchTrainerParity:
    """BatchTrainer vs serial local_train on identical twin fleets."""

    @pytest.mark.parametrize("dirichlet", [False, True])
    def test_multi_round_parity_ragged_shards(self, dirichlet):
        # 5 clients x 233 samples: every shard has a ragged tail batch; the
        # dirichlet variant spreads shard sizes across geometry groups.
        serial = _make_clients(5, 233, dirichlet=dirichlet)
        batched = _make_clients(5, 233, dirichlet=dirichlet)
        trainer = BatchTrainer(batched)
        base = serial[0].model.get_flat_params()
        for round_number in range(3):
            serial_updates = [c.local_train(base, round_number) for c in serial]
            batched_updates = trainer.train(
                [TrainRequest(u, base, round_number) for u in range(5)],
                include_params=True,
            )
            _assert_round_parity(serial_updates, batched_updates)
            base = base + sum(u.delta for u in serial_updates) / 5
        # Persistent state parity: last upload, momentum and RNG streams (the
        # model is a workspace; what it holds after a round is not state).
        for cs, cb, us, ub in zip(serial, batched, serial_updates, batched_updates):
            assert np.allclose(us.params, ub.params, rtol=RTOL, atol=ATOL)
            assert np.allclose(
                cs.optimizer.velocity, cb.optimizer.velocity, rtol=RTOL, atol=ATOL
            )
            assert cs.rounds_completed == cb.rounds_completed
            assert cs._rng.random() == cb._rng.random()

    def test_lenet_conv_pool_path(self):
        serial = _make_clients(4, 96, lenet=True)
        batched = _make_clients(4, 96, lenet=True)
        trainer = BatchTrainer(batched)
        base = serial[0].model.get_flat_params()
        serial_updates = [c.local_train(base, 0) for c in serial]
        batched_updates = trainer.train(
            [TrainRequest(u, base, 0) for u in range(4)], include_params=True
        )
        _assert_round_parity(serial_updates, batched_updates)

    def test_dropout_uses_per_client_rng_streams(self):
        serial = _make_clients(4, 120, dropout=True)
        batched = _make_clients(4, 120, dropout=True)
        trainer = BatchTrainer(batched)
        base = serial[0].model.get_flat_params()
        for round_number in range(2):
            serial_updates = [c.local_train(base, round_number) for c in serial]
            batched_updates = trainer.train(
                [TrainRequest(u, base, round_number) for u in range(4)],
                include_params=True,
            )
            _assert_round_parity(serial_updates, batched_updates)

    def test_multiple_local_epochs(self):
        serial = _make_clients(3, 90, local_epochs=3)
        batched = _make_clients(3, 90, local_epochs=3)
        trainer = BatchTrainer(batched)
        base = serial[0].model.get_flat_params()
        serial_updates = [c.local_train(base, 0) for c in serial]
        batched_updates = trainer.train(
            [TrainRequest(u, base, 0) for u in range(3)], include_params=True
        )
        assert batched_updates[0].num_batches == serial_updates[0].num_batches
        _assert_round_parity(serial_updates, batched_updates)

    def test_block_splitting_beyond_cap(self):
        """Groups wider than _MAX_BLOCK_CLIENTS split without changing results."""
        count = BatchTrainer._MAX_BLOCK_CLIENTS + 7
        serial = _make_clients(count, count * 23)
        batched = _make_clients(count, count * 23)
        trainer = BatchTrainer(batched)
        base = serial[0].model.get_flat_params()
        serial_updates = [c.local_train(base, 0) for c in serial]
        batched_updates = trainer.train(
            [TrainRequest(u, base, 0) for u in range(count)], include_params=True
        )
        _assert_round_parity(serial_updates, batched_updates)

    def test_thread_fanout_is_deterministic(self):
        count = BatchTrainer._MAX_BLOCK_CLIENTS + 5
        sequential = _make_clients(count, count * 21)
        threaded = _make_clients(count, count * 21)
        base = sequential[0].model.get_flat_params()
        requests = [TrainRequest(u, base, 0) for u in range(count)]
        updates_seq = BatchTrainer(sequential, threads=1).train(requests, include_params=True)
        updates_thr = BatchTrainer(threaded, threads=2).train(requests, include_params=True)
        for a, b in zip(updates_seq, updates_thr):
            assert np.array_equal(a.params, b.params)
            assert a.train_loss == b.train_loss

    def test_rejects_mismatched_architectures(self):
        clients = _make_clients(2, 60)
        clients[1].model = build_mlp(input_dim=24, hidden_dims=(8,), seed=0)
        with pytest.raises(ValueError):
            BatchTrainer(clients)

    def test_rejects_duplicate_requests(self):
        clients = _make_clients(2, 60)
        trainer = BatchTrainer(clients)
        base = clients[0].model.get_flat_params()
        with pytest.raises(ValueError):
            trainer.train([TrainRequest(0, base, 0), TrainRequest(0, base, 0)])

    def test_rejects_wrong_base_shape(self):
        clients = _make_clients(2, 60)
        trainer = BatchTrainer(clients)
        with pytest.raises(ValueError):
            trainer.train([TrainRequest(0, np.zeros(3), 0)])


# ---------------------------------------------------------------------------
# Engine-level equivalence matrix
# ---------------------------------------------------------------------------


def _matrix_config(seed: int, dirichlet: bool) -> SimulationConfig:
    """Tiny but non-trivial: 7 users force ragged shards (500 / 7)."""
    return SimulationConfig(
        num_users=7,
        total_slots=420,
        app_arrival_prob=0.02,
        seed=seed,
        num_train_samples=500,
        num_test_samples=150,
        hidden_dims=(24,),
        eval_interval_slots=140,
        trace_interval_slots=10,
        non_iid_alpha=0.4 if dirichlet else None,
    )


def _matrix_policy(name: str):
    if name == "immediate":
        return ImmediatePolicy()
    if name == "sync":
        return SyncPolicy()
    if name == "offline":
        return OfflinePolicy(staleness_bound=1000.0, window_slots=120)
    return OnlinePolicy(v=4000.0, staleness_bound=500.0)


class TestEngineEquivalenceMatrix:
    """Serial vs batched engine runs: seeds x policies x partitions."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("dirichlet", [False, True])
    @pytest.mark.parametrize("policy_name", ["immediate", "sync", "offline", "online"])
    def test_batched_run_reproduces_serial_run(self, policy_name, dirichlet, seed):
        config = _matrix_config(seed, dirichlet)
        serial = SimulationEngine(
            config, _matrix_policy(policy_name), batched_training=False
        ).run()
        batched = SimulationEngine(
            config, _matrix_policy(policy_name), batched_training=True
        ).run()

        # Slot-for-slot decision traces and update ordering are identical.
        assert serial.trace.decisions == batched.trace.decisions
        assert serial.num_updates == batched.num_updates
        assert [u.user_id for u in serial.trace.update_samples] == [
            u.user_id for u in batched.trace.update_samples
        ]
        assert [u.lag for u in serial.trace.update_samples] == [
            u.lag for u in batched.trace.update_samples
        ]
        # Energy and queue traces: training does not influence Eq. (10), so
        # energy is bitwise; queues absorb float gap sums, so tight allclose.
        assert serial.total_energy_j() == batched.total_energy_j()
        assert np.allclose(
            serial.queue_history or [0.0], batched.queue_history or [0.0],
            rtol=RTOL, atol=ATOL,
        )
        assert np.allclose(
            serial.virtual_queue_history or [0.0],
            batched.virtual_queue_history or [0.0],
            rtol=RTOL, atol=ATOL,
        )
        # Model-side observables: losses, gaps and the accuracy curve.
        assert np.allclose(
            [u.train_loss for u in serial.trace.update_samples],
            [u.train_loss for u in batched.trace.update_samples],
            rtol=1e-8, atol=1e-10,
        )
        assert np.allclose(
            [u.gradient_gap for u in serial.trace.update_samples],
            [u.gradient_gap for u in batched.trace.update_samples],
            rtol=1e-8, atol=1e-10,
        )
        assert serial.accuracy.times() == batched.accuracy.times()
        assert np.allclose(
            serial.accuracy.accuracies(), batched.accuracy.accuracies(),
            rtol=1e-8, atol=1e-10,
        )

    def test_train_ahead_only_runs_ahead(self):
        """Batched clients may pre-run rounds whose completion falls past the
        horizon; everything observable matches (previous test), and the
        round counters can only ever be ahead of the serial engine's."""
        config = _matrix_config(seed=2, dirichlet=False)
        serial_engine = SimulationEngine(config, ImmediatePolicy(), batched_training=False)
        batched_engine = SimulationEngine(config, ImmediatePolicy(), batched_training=True)
        serial_engine.run()
        batched_engine.run()
        for cs, cb in zip(serial_engine.clients, batched_engine.clients):
            assert cb.rounds_completed >= cs.rounds_completed


# ---------------------------------------------------------------------------
# Zero-copy parameter plumbing
# ---------------------------------------------------------------------------


class TestUploadPayloadAndZeroCopy:
    def test_delta_only_upload_halves_payload(self):
        clients = _make_clients(1, 60)
        base = clients[0].model.get_flat_params()
        full = clients[0].local_train(base, 0, include_params=True)
        lean = clients[0].local_train(base, 1, include_params=False)
        assert lean.params is None
        assert lean.payload_nbytes() == lean.delta.nbytes
        assert full.payload_nbytes() == 2 * lean.payload_nbytes()

    def test_engine_ships_delta_only_under_accumulate(self):
        config = _matrix_config(seed=0, dirichlet=False)
        engine = SimulationEngine(config, ImmediatePolicy())
        assert config.async_rule is AsyncUpdateRule.ACCUMULATE
        assert engine._upload_params is False

    def test_engine_ships_params_for_replace_rules(self):
        config = _matrix_config(seed=0, dirichlet=False).scaled(
            async_rule=AsyncUpdateRule.STALENESS_WEIGHTED, total_slots=250
        )
        for batched in (False, True):
            result = SimulationEngine(
                config, ImmediatePolicy(), batched_training=batched
            ).run()
            assert result.num_updates > 0

    def test_server_rejects_delta_only_for_replace_rule(self):
        from repro.fl.client import LocalUpdate

        server = ParameterServer(np.zeros(4), async_rule=AsyncUpdateRule.REPLACE)
        update = LocalUpdate(
            user_id=0, delta=np.ones(4), base_version=0, num_samples=5,
            train_loss=1.0, momentum_norm=0.0, num_batches=1,
        )
        with pytest.raises(ValueError, match="include_params"):
            server.async_update(update, time_s=0.0)

    def test_sync_round_reconstructs_from_deltas(self):
        from repro.fl.client import LocalUpdate

        server = ParameterServer(np.full(2, 1.0))
        updates = [
            LocalUpdate(0, delta=np.full(2, 1.0), base_version=0, num_samples=30,
                        train_loss=1.0, momentum_norm=0.0, num_batches=1),
            LocalUpdate(1, delta=np.full(2, 7.0), base_version=0, num_samples=10,
                        train_loss=1.0, momentum_norm=0.0, num_batches=1),
        ]
        server.sync_round(updates, time_s=0.0)
        # Weighted average of (1+1, 1+7) with weights (0.75, 0.25).
        assert np.allclose(server.global_params(), 0.75 * 2.0 + 0.25 * 8.0)

    def test_sync_round_rejects_stale_delta_only_uploads(self):
        """Reconstruction assumes participants trained from the current
        global model; a stale delta-only upload must fail loudly instead of
        silently averaging a wrong absolute vector."""
        from repro.fl.client import LocalUpdate

        server = ParameterServer(np.zeros(2))
        server.async_update(
            LocalUpdate(0, delta=np.ones(2), base_version=0, num_samples=1,
                        train_loss=0.0, momentum_norm=0.0, num_batches=1),
            time_s=0.0,
        )
        stale = LocalUpdate(1, delta=np.ones(2), base_version=0, num_samples=1,
                            train_loss=0.0, momentum_norm=0.0, num_batches=1)
        with pytest.raises(ValueError, match="include_params"):
            server.sync_round([stale], time_s=1.0)

    def test_global_params_is_read_only_view(self):
        server = ParameterServer(np.arange(4.0))
        view = server.global_params()
        assert not view.flags.writeable
        assert np.shares_memory(view, server._params)
        with pytest.raises(ValueError):
            view[0] = 99.0
        # Updates rebind instead of mutating: an old download stays a valid
        # snapshot of the model at download time.
        from repro.fl.client import LocalUpdate

        snapshot = server.download(0)
        server.async_update(
            LocalUpdate(0, delta=np.ones(4), base_version=0, num_samples=1,
                        train_loss=0.0, momentum_norm=0.0, num_batches=1),
            time_s=0.0,
        )
        assert np.array_equal(snapshot, np.arange(4.0))
        assert np.array_equal(server.global_params(), np.arange(4.0) + 1.0)

    def test_one_view_per_model_version(self):
        import pickle

        from repro.fl.client import LocalUpdate

        server = ParameterServer(np.arange(4.0))
        first = server.download(0)
        assert server.download(1) is first and server.global_params() is first
        server.async_update(
            LocalUpdate(0, delta=np.ones(4), base_version=0, num_samples=1,
                        train_loss=0.0, momentum_norm=0.0, num_batches=1),
            time_s=0.0,
        )
        second = server.download(1)
        assert second is not first and server.download(2) is second
        # The cache is derived state and is not pickled; the restored
        # server (whose vector no longer owns its memory) still recognises
        # its own view.
        restored = pickle.loads(pickle.dumps(server))
        assert restored._view is None
        assert restored.global_params() is restored.global_params()
        assert np.array_equal(restored.global_params(), second)


# ---------------------------------------------------------------------------
# Engine timers
# ---------------------------------------------------------------------------


class TestEngineTimers:
    def test_profile_reports_shares(self):
        config = _matrix_config(seed=0, dirichlet=False).scaled(total_slots=200)
        result = SimulationEngine(config, ImmediatePolicy(), profile=True).run()
        shares = result.timing_shares()
        assert shares is not None
        assert set(shares) == {
            "training", "policy", "eval", "coupling", "ipc_send", "ipc_recv", "merge",
            "slot_loop",
        }
        assert sum(shares.values()) == pytest.approx(1.0)
        # Single-process runs never touch the shard IPC buckets.
        assert shares["ipc_send"] == 0.0 and shares["ipc_recv"] == 0.0
        assert result.timers.report().startswith("wall-clock profile")

    def test_profiling_off_by_default(self):
        config = _matrix_config(seed=0, dirichlet=False).scaled(total_slots=120)
        result = SimulationEngine(config, ImmediatePolicy()).run()
        assert result.timers is None
        assert result.timing_shares() is None

    def test_profiling_does_not_change_results(self):
        config = _matrix_config(seed=1, dirichlet=False).scaled(total_slots=200)
        plain = SimulationEngine(config, ImmediatePolicy()).run()
        profiled = SimulationEngine(config, ImmediatePolicy(), profile=True).run()
        assert plain.total_energy_j() == profiled.total_energy_j()
        assert plain.num_updates == profiled.num_updates
        assert plain.accuracy.accuracies() == profiled.accuracy.accuracies()

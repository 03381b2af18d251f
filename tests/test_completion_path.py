"""The completion path in slot blocks: blocks == scalars, bit for bit.

Everything that completes in a slot is one block of work: a download block
and an upload block on the coordinator (``CouplingCore.record_download`` /
``apply_async_update`` over ``ParameterServer.download_block`` /
``async_update_block``, each counting one transfer per user) and a lean
local round per finisher.  Contracts under test:

* a block of uploads leaves the server exactly as the scalar sequence
  ``gap = ||params - base||; async_update(update, gap)`` would, under all four
  merge rules, and raises where that sequence raises;
* ``FLClient.local_train`` is bit for bit the round frozen in
  ``tests/oracle.py`` (one gather per mini-batch, ``np.mean`` /
  ``np.linalg.norm`` / ``np.clip``);
* uploads carry the delta alone under the accumulate rule, the server hands
  out one read-only view per model version, and the engine's profile shares
  sum to one without changing results;
* with every round trained at its completion slot, the fleet engine (with
  and without fast-forward) reproduces the reference loop bit for bit across
  policies, seeds and IID / Dirichlet ragged shards, client state included.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    DataPartition,
    FrozenLocalTrainer,
    client_plane,
    inflight_count,
    make_engine,
    run_digest,
    user_partitions,
)
from repro.core.granularity import DecisionIntervalPolicy
from repro.core.offline import OfflinePolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import ImmediatePolicy, SyncPolicy
from repro.core.staleness import gradient_gap_from_params
from repro.fl.client import FLClient, LocalUpdate
from repro.fl.dataset import SyntheticCifar10, partition_iid
from repro.fl.layers import Linear, SoftmaxCrossEntropy, Tanh
from repro.fl.model import Sequential, build_mlp
from repro.fl.optimizer import vector_norm
from repro.fl.server import AsyncUpdateRule, ParameterServer
from repro.sim.config import SimulationConfig
from repro.sim.coupling import CouplingCore
from repro.sim.engine import SimulationEngine

# ---------------------------------------------------------------------------
# Server blocks
# ---------------------------------------------------------------------------

DIM = 7


def _server(rule, seed=0, inflight=()):
    rng = np.random.default_rng(seed)
    server = ParameterServer(rng.normal(size=DIM), async_rule=rule, mixing_alpha=0.6)
    for user, finish in inflight:
        server.register_inflight_block((user,), (finish,))
    return server


def _uploads(seed, users, base_versions, with_params):
    rng = np.random.default_rng(seed)
    updates, bases = [], []
    for user, base_version in zip(users, base_versions):
        base = rng.normal(size=DIM)
        params = base + rng.normal(size=DIM)
        updates.append(
            LocalUpdate(
                user_id=user,
                delta=params - base,
                base_version=base_version,
                num_samples=3,
                train_loss=float(rng.random()),
                momentum_norm=0.0,
                num_batches=1,
                params=params if with_params else None,
            )
        )
        bases.append(base)
    return updates, bases


def _scalar_sequence(server, updates, bases, time_s):
    """The per-upload form the block replaced (``CouplingCore`` as of PR 20)."""
    outcomes = []
    for update, base in zip(updates, bases):
        gap = gradient_gap_from_params(base, server.global_params())
        record = server.async_update(update, time_s=time_s, gradient_gap=gap)
        outcomes.append((record.lag, gap))
    return outcomes


def _same_server(block, scalar):
    assert block._params.tobytes() == scalar._params.tobytes()
    assert block.version == scalar.version
    assert block.updates.rows() == scalar.updates.rows()
    assert block._inflight == scalar._inflight
    count = len(block._inflight)
    assert np.array_equal(block._finishes[:count], scalar._finishes[:count])
    assert np.array_equal(block._inflight_mask, scalar._inflight_mask)


class TestServerBlocks:
    @pytest.mark.parametrize("rule", list(AsyncUpdateRule))
    @pytest.mark.parametrize("size", [0, 1, 2, 40])
    def test_block_equals_the_scalar_sequence(self, rule, size):
        users = list(range(3, 3 + size))
        inflight = [(user, 10.0 + user % 4) for user in users] + [(99, 11.0)]
        block, scalar = _server(rule, 1, inflight), _server(rule, 1, inflight)
        with_params = rule is not AsyncUpdateRule.ACCUMULATE
        # Two blocks, so the second starts from a history: lags 0 .. version.
        for round_number, seed in enumerate((5, 6)):
            versions = [
                (index * 7) % (block.version + index + 1) for index in range(size)
            ] if round_number else [0] * size
            updates, bases = _uploads(seed, users, versions, with_params)
            for user, finish in inflight[:size]:
                block.register_inflight_block((user,), (finish,))
                scalar.register_inflight_block((user,), (finish,))
            rows = block.async_update_block(updates, bases, time_s=4.0)
            want = _scalar_sequence(scalar, updates, bases, 4.0)
            assert [(row[3], row[4]) for row in rows] == want
            assert all(type(row[3]) is int and type(row[4]) is float for row in rows)
            _same_server(block, scalar)
        assert block.version == 2 * size and len(block._inflight) == 1

    @pytest.mark.parametrize(
        "rule, fault",
        [
            (rule, fault)
            for rule in AsyncUpdateRule
            for fault in ("delta_shape", "base_shape", "future_version", "no_params")
            # delta-only uploads suffice for accumulate
            if (rule, fault) != (AsyncUpdateRule.ACCUMULATE, "no_params")
        ],
    )
    def test_block_raises_where_the_scalar_sequence_does(self, rule, fault):
        users = [2, 4, 6, 8]
        inflight = [(user, 5.0) for user in users]
        block, scalar = _server(rule, 2, inflight), _server(rule, 2, inflight)
        updates, bases = _uploads(9, users, [0, 0, 1, 0], with_params=True)
        if fault == "delta_shape":
            updates[2].delta = np.zeros(DIM + 1)
        elif fault == "base_shape":
            bases[2] = np.zeros(DIM + 1)
        elif fault == "future_version":
            updates[2].base_version = 3  # two updates applied when its turn comes
        else:
            updates[2].params = None
        messages = []
        for server, apply in (
            (block, lambda: block.async_update_block(updates, bases, 1.0)),
            (scalar, lambda: _scalar_sequence(scalar, updates, bases, 1.0)),
        ):
            with pytest.raises(ValueError) as raised:
                apply()
            messages.append(str(raised.value))
            assert server.version == 2  # the two uploads before the bad one stay applied
        assert messages[0] == messages[1]
        _same_server(block, scalar)
        assert sorted(block._inflight) == [6, 8]

    @pytest.mark.parametrize("rule", list(AsyncUpdateRule))
    def test_a_view_pinned_before_a_block_keeps_its_bits(self, rule):
        server = _server(rule, 3)
        pinned = server.download_block((0,))
        before = pinned.copy()
        updates, bases = _uploads(4, [0, 1, 2], [0, 0, 0], with_params=True)
        server.async_update_block(updates, bases, 0.0)
        assert np.array_equal(pinned, before) and not pinned.flags.writeable
        assert not np.array_equal(server.global_params(), before)
        assert not np.shares_memory(server.global_params(), pinned)
        # Nor does the model alias an upload: REPLACE copies.
        assert not any(np.shares_memory(server.global_params(), u.params) for u in updates)

    def test_download_block_is_one_version_one_view(self):
        server = _server(AsyncUpdateRule.ACCUMULATE)
        view = server.download_block([3, 1, 4])
        assert view is server.global_params() is server.download_block((5,))
        assert [server.downloaded_version(user) for user in (1, 3, 4, 5)] == [0] * 4
        assert server.downloaded_version(2) is None


# ---------------------------------------------------------------------------
# The round
# ---------------------------------------------------------------------------


def _stack(kind: str) -> Sequential:
    if kind == "mlp":
        return build_mlp(input_dim=12, hidden_dims=(16, 8), seed=3)
    init = np.random.default_rng(3)
    return Sequential([Linear(12, 16, rng=init), Tanh(), Linear(16, 10, rng=init)])


def _shard(size: int) -> DataPartition:
    rng = np.random.default_rng(size)
    return DataPartition(0, rng.normal(size=(size, 12)), rng.integers(0, 10, size=size))


class TestTheRound:
    @pytest.mark.parametrize("kind", ["mlp", "tanh"])
    @pytest.mark.parametrize("size", [1, 5, 20, 47])
    @pytest.mark.parametrize("local_epochs", [1, 2])
    @pytest.mark.parametrize("include_params", [True, False])
    def test_local_train_matches_the_frozen_round_bitwise(
        self, kind, size, local_epochs, include_params
    ):
        shard = _shard(size)
        client = client_plane([shard], _stack(kind), local_epochs=local_epochs, seed=41)
        frozen = FrozenLocalTrainer(_stack(kind), shard, local_epochs=local_epochs, seed=41)
        base = client.model.get_flat_params()
        base.setflags(write=False)  # as the server's download view is
        for round_number in range(3):
            (update,) = FLClient.local_train(
                client, [0], [base], [round_number], include_params=include_params
            )
            want = frozen.local_train(base)
            assert np.array_equal(update.delta, want.delta)
            if include_params:
                assert np.array_equal(update.params, want.params)
                assert not np.shares_memory(update.params, client.model.flat_params)
            else:
                assert update.params is None
            assert not np.shares_memory(update.delta, client.model.flat_params)
            assert type(update.train_loss) is float and update.train_loss == want.train_loss
            assert type(update.momentum_norm) is float
            assert update.momentum_norm == want.momentum_norm
            assert update.momentum_norm == vector_norm(client.velocities[0])
            assert update.num_batches == local_epochs * -(-size // 20)
            assert update.num_samples == size
            assert np.array_equal(client.velocities[0], frozen.velocity)
            assert client.rng_state(0) == frozen.rng.bit_generator.state
            base = base + update.delta
        assert client.rounds_completed[0] == 3

    def test_backward_twice_returns_equal_arrays(self):
        rng = np.random.default_rng(0)
        loss = SoftmaxCrossEntropy()
        loss.forward(rng.normal(size=(6, 4)), rng.integers(0, 4, size=6))
        first, second = loss.backward(), loss.backward()
        assert first is not second and np.array_equal(first, second)
        assert np.allclose(first.sum(axis=1), 0.0)

    def test_a_short_batch_after_a_full_one_uses_its_own_row_index(self):
        rng = np.random.default_rng(1)
        shared, fresh = SoftmaxCrossEntropy(), SoftmaxCrossEntropy()
        full = (rng.normal(size=(20, 5)), rng.integers(0, 5, size=20))
        short = (rng.normal(size=(7, 5)), rng.integers(0, 5, size=7))
        shared.forward(*full)
        shared.backward()
        assert shared.forward(*short) == fresh.forward(*short)
        assert np.array_equal(shared.backward(), fresh.backward())
        assert shared.backward().shape == (7, 5)
        # ... and back again.
        assert shared.forward(*full) == SoftmaxCrossEntropy().forward(*full)

    def test_the_loss_clips_a_vanished_probability(self):
        logits = np.array([[0.0, 800.0], [800.0, 0.0]])
        assert SoftmaxCrossEntropy().forward(logits, np.array([0, 0])) == float(
            -np.mean(np.log(np.array([1e-12, 1.0])))
        )

    def test_linear_forward_owns_its_output(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        layer.params["b"][:] = [0.5, -0.25]
        x = np.random.default_rng(1).normal(size=(4, 3))
        out = layer.forward(x)
        assert np.array_equal(out, x @ layer.params["w"] + layer.params["b"])
        assert not np.shares_memory(out, layer.params["b"])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), size=st.sampled_from([1, 2, 9, 1210]))
    def test_the_three_identities_the_round_leans_on(self, seed, size):
        rng = np.random.default_rng(seed)
        vector = rng.normal(size=size) * 10.0 ** rng.integers(-3, 4)
        assert vector_norm(vector) == float(np.linalg.norm(vector))
        assert float(np.add.reduce(vector) / size) == float(np.mean(vector))
        twin = copy.deepcopy(rng)
        block = np.maximum(1.0 + rng.normal(0.0, 0.15, size=size), 0.1).tolist()
        assert block == [max(0.1, 1.0 + twin.normal(0.0, 0.15)) for _ in range(size)]
        assert rng.bit_generator.state == twin.bit_generator.state


# ---------------------------------------------------------------------------
# Zero-copy parameter plumbing
# ---------------------------------------------------------------------------


def _make_clients(num_clients: int, num_samples: int, seed: int = 0) -> FLClient:
    """An MLP client plane over IID shards of one synthetic dataset."""
    dataset = SyntheticCifar10(num_train=num_samples, num_test=40, feature_dim=24, seed=seed)
    x, y = dataset.train_set()
    partitions = user_partitions(
        x, y, partition_iid(x, y, num_clients, np.random.default_rng(seed + 17))
    )
    return client_plane(
        partitions, build_mlp(input_dim=24, hidden_dims=(32, 16), seed=seed), seed=100
    )


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


class TestUploadPayloadAndZeroCopy:
    def test_delta_only_upload_halves_payload(self):
        clients = _make_clients(1, 60)
        base = clients.model.get_flat_params()
        (full,) = FLClient.local_train(clients, [0], [base], [0], include_params=True)
        (lean,) = FLClient.local_train(clients, [0], [base], [1], include_params=False)
        assert lean.params is None
        assert full.params.nbytes == full.delta.nbytes == lean.delta.nbytes

    def test_engine_ships_delta_only_under_accumulate(self):
        config = _matrix_config(seed=0, dirichlet=False)
        engine = SimulationEngine(config, ImmediatePolicy())
        assert config.async_rule is AsyncUpdateRule.ACCUMULATE
        assert engine._upload_params is False

    def test_engine_ships_params_for_replace_rules(self):
        config = _matrix_config(seed=0, dirichlet=False).scaled(
            async_rule=AsyncUpdateRule.STALENESS_WEIGHTED, total_slots=250
        )
        result = SimulationEngine(config, ImmediatePolicy()).run()
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

        snapshot = server.download_block((0,))
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
        first = server.download_block((0,))
        assert server.download_block((1,)) is first and server.global_params() is first
        server.async_update(
            LocalUpdate(0, delta=np.ones(4), base_version=0, num_samples=1,
                        train_loss=0.0, momentum_norm=0.0, num_batches=1),
            time_s=0.0,
        )
        second = server.download_block((1,))
        assert second is not first and server.download_block((2,)) is second
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


# ---------------------------------------------------------------------------
# Engine-level equivalence matrix
# ---------------------------------------------------------------------------


def _matrix_policy(name: str):
    if name == "immediate":
        return ImmediatePolicy()
    if name == "sync":
        return SyncPolicy()
    if name == "offline":
        return OfflinePolicy(staleness_bound=1000.0, window_slots=120)
    return OnlinePolicy(v=4000.0, staleness_bound=500.0)


#: Transfers of a 1200-slot ``_matrix_config(seed=2)`` run per policy, as the
#: length of the retired per-transfer log (one row per download and per
#: asynchronous upload), in every execution mode.  The log left out a
#: synchronous round's uploads; the count has them: 35 downloads + 28 uploads.
TIMED_TRANSFER_LOG_LENGTH = {
    "immediate": 71,
    "sync": 63,
    "offline": 65,
    "online": 57,
    "interval": 53,
}


def _transfer_policy(name: str):
    if name == "interval":
        return DecisionIntervalPolicy(_matrix_policy("online"), interval_slots=30)
    return _matrix_policy(name)


class TestTransferCount:
    """``CouplingCore.transfers`` is one integer where a transport logged a
    row per transfer: the count, and the megabytes it reports, are those of
    the log."""

    @pytest.mark.parametrize("policy_name", sorted(TIMED_TRANSFER_LOG_LENGTH))
    def test_the_count_is_the_retired_log_length(self, monkeypatch, policy_name):
        blocks = []
        real_download = CouplingCore.record_download
        real_upload = CouplingCore.apply_async_update
        real_sync_upload = CouplingCore.buffer_sync_upload

        def record_download(core, users):
            blocks.append(len(users))
            return real_download(core, users)

        def apply_async_update(core, slot, users, updates):
            blocks.append(len(users))
            return real_upload(core, slot, users, updates)

        def buffer_sync_upload(core, user, update):
            blocks.append(1)
            return real_sync_upload(core, user, update)

        monkeypatch.setattr(CouplingCore, "record_download", record_download)
        monkeypatch.setattr(CouplingCore, "apply_async_update", apply_async_update)
        monkeypatch.setattr(CouplingCore, "buffer_sync_upload", buffer_sync_upload)
        config = _matrix_config(seed=2, dirichlet=False).scaled(total_slots=1200)
        want = TIMED_TRANSFER_LOG_LENGTH[policy_name]
        for mode in ("loop", "slots", "fleet"):
            blocks.clear()
            engine = make_engine(mode, config, _transfer_policy(policy_name))
            result = engine.run()
            assert engine.core.transfers == sum(blocks) == want, mode
            assert result.comm_bytes_mb == sum(2.5 for _ in range(want))


class TestEngineEquivalenceMatrix:
    """The fleet engine's round at the completion slot vs the reference
    loop's: seeds x policies x partitions x fast-forward, on ragged shards."""

    @pytest.mark.parametrize("mode", ["slots", "fleet"], ids=["fleet", "fast-forward"])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("dirichlet", [False, True])
    @pytest.mark.parametrize("policy_name", ["immediate", "sync", "offline", "online"])
    def test_fleet_run_reproduces_the_reference_loop(
        self, policy_name, dirichlet, seed, mode
    ):
        config = _matrix_config(seed, dirichlet)
        loop = make_engine("loop", config, _matrix_policy(policy_name))
        fleet = make_engine(mode, config, _matrix_policy(policy_name))
        want, got = loop.run(), fleet.run()

        assert got.num_updates > 0
        assert run_digest(got) == run_digest(want)
        # Model-side observables the digest leaves out, compared with ``==``.
        assert got.trace.update_samples == want.trace.update_samples
        assert got.accuracy.accuracies() == want.accuracy.accuracies()
        # Per-client round state: same rounds, same momentum, same RNG stream.
        ours, theirs = fleet.clients, loop.clients
        assert np.array_equal(ours.rounds_completed, theirs.rounds_completed)
        for user in range(config.num_users):
            assert ours.rng_state(user) == theirs.rng_state(user)
            if theirs.velocities[user] is None:
                assert ours.velocities[user] is None
            else:
                assert np.array_equal(ours.velocities[user], theirs.velocities[user])

    def test_rounds_run_only_at_their_completion_slot(self):
        """No round is trained ahead: with every upload delivered, a client's
        round counter is the number of its updates the server applied, and
        the jobs still in flight at the horizon have not trained yet.  Every
        user downloaded once at the start and once after each upload, so the
        run moved two models per update plus one per user."""
        config = _matrix_config(seed=2, dirichlet=False)
        engine = SimulationEngine(config, ImmediatePolicy())
        result = engine.run()
        assert result.num_updates > 0
        assert engine.core.transfers == 2 * result.num_updates + config.num_users
        assert result.comm_bytes_mb == 2.5 * engine.core.transfers
        assert inflight_count(engine.server) == config.num_users
        applied = [0] * config.num_users
        for sample in result.trace.update_samples:
            applied[sample.user_id] += 1
        assert engine.clients.rounds_completed.tolist() == applied

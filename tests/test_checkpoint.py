"""Checkpoint/resume round-trips: both engines, bitwise, at awkward moments.

The contract under test (see ``src/repro/service/checkpoint.py``): a run
interrupted at any slot boundary and restored from its checkpoint finishes
with results bitwise-identical to the uninterrupted run — same energy
folds, same accuracy samples, same queue histories, same trace — for the
single-process engine, fast-forwarding or held to the slot path
(``oracle.SlotBySlotEngine``), and the sharded engine (including restoring under a
different shard count).
"""

import builtins
import contextlib
import copy
import dataclasses
import enum
import json
import logging
import os
import pickle
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from oracle import make_engine, retained_slots, run_digest
from repro.core.online import OnlinePolicy
from repro.core.policies import SyncPolicy
from repro.fl.client import FLClient, LocalUpdate
from repro.service import checkpoint as checkpoint_module
from repro.service.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    CheckpointStore,
    Checkpointer,
    CoordinatorState,
    EngineCheckpoint,
    RunInterrupted,
)
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.shard import ShardedEngine, shard_bounds


def make_config(**overrides) -> SimulationConfig:
    base = dict(
        num_users=5,
        total_slots=300,
        app_arrival_prob=0.01,
        seed=7,
        num_train_samples=400,
        num_test_samples=200,
        hidden_dims=(8,),
        eval_interval_slots=100,
        trace_interval_slots=10,
        class_separation=2.5,
        clusters_per_class=1,
        label_noise=0.0,
        learning_rate=0.05,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def make_policy(name: str):
    if name == "sync":
        return SyncPolicy()
    return OnlinePolicy(v=4000.0, staleness_bound=500.0, epsilon=0.01)


def digest(result) -> dict:
    """Every observable output that must survive a resume bitwise."""
    return dict(
        energy=result.total_energy_j(),
        updates=result.num_updates,
        accuracy=[(s.time_s, s.accuracy, s.loss) for s in result.accuracy.samples],
        queue=list(result.queue_history),
        virtual_queue=list(result.virtual_queue_history),
        slots=[
            (s.slot, s.cumulative_energy_j, s.queue_length,
             s.virtual_queue_length, s.gap_sum)
            for s in result.trace.slot_samples
        ],
        comm=result.comm_bytes_mb,
        soc=list(result.final_battery_soc),
    )


def interrupt_at(engine, at_slot: int):
    """Run until the checkpoint at ``at_slot`` lands, return that checkpoint."""
    taken = []
    checkpointer = Checkpointer(
        lambda cp: (taken.append(cp), checkpointer.request_stop()),
        at_slots=[at_slot],
    )
    with pytest.raises(RunInterrupted):
        engine.run(checkpointer)
    assert len(taken) == 1
    assert taken[0].slot == at_slot
    return taken[0]


def intercept_writes(monkeypatch, write) -> None:
    """Route every ``write`` of a file the checkpoint module opens through
    ``write(real_handle, data)`` — how the tests land torn or dying writes."""

    class Handle:
        def __init__(self, real):
            self.real = real

        def __enter__(self):
            self.real.__enter__()
            return self

        def __exit__(self, *exc):
            return self.real.__exit__(*exc)

        def write(self, data):
            return write(self.real, data)

        def read(self, size=-1):
            return self.real.read(size)

    monkeypatch.setattr(
        checkpoint_module,
        "open",
        lambda *args, **kwargs: Handle(builtins.open(*args, **kwargs)),
        raising=False,
    )


def snapshot_dirs(store) -> list:
    return sorted(path.name for path in store.root.glob(store.SNAPSHOT_PREFIX + "*"))


def assert_only_needed_files_remain(store) -> None:
    """Every directory on disk is a retained snapshot, or is referenced by
    one and stripped down to its pack."""
    manifest = store._read_manifest()
    snapshots = {entry["dir"] for entry in manifest["retained"]}
    referenced = {ref for entry in manifest["retained"] for ref in entry["refs"]}
    assert set(snapshot_dirs(store)) == snapshots | referenced
    for name in referenced - snapshots:
        assert [file.name for file in (store.root / name).iterdir()] == [store.PACK]


def same_state(a, b) -> bool:
    """Deep equality that compares arrays value for value and dtype for dtype."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tolist() == b.tolist()
        )
    if dataclasses.is_dataclass(a) and not isinstance(a, SimulationConfig):
        return type(a) is type(b) and same_state(vars(a), vars(b))
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(same_state(a[key], b[key]) for key in a)
        )
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(same_state(x, y) for x, y in zip(a, b))
        )
    return a == b


def assert_same(reference: dict, resumed: dict, label: str) -> None:
    for key in reference:
        assert reference[key] == resumed[key], f"{label}: diverged on {key}"


# The interrupt points are chosen to land in qualitatively different run
# states: slot 37 interrupts the opening training flight, slot 137 falls
# inside a long quiet region (the fast-forward kernel must split it
# exactly at the boundary), and under the sync policy a mid-run slot sits
# inside an open synchronous round with partial uploads buffered.
CASES = [
    pytest.param("slots", "online", 137, id="fleet-mid-quiet"),
    pytest.param("fleet", "online", 137, id="fleet-ff-mid-quiet"),
    pytest.param("fleet", "online", 37, id="fleet-ff-mid-flight"),
    pytest.param("fleet", "sync", 151, id="fleet-ff-mid-sync-round"),
]


class TestSingleEngineRoundTrip:
    @pytest.mark.parametrize("mode,policy,at_slot", CASES)
    def test_resume_is_bitwise_identical(self, mode, policy, at_slot):
        config = make_config()
        reference = digest(make_engine(mode, config, make_policy(policy)).run())
        engine = make_engine(mode, config, make_policy(policy))
        checkpoint = interrupt_at(engine, at_slot)
        resumed = digest(type(engine).restore(checkpoint).run())
        assert_same(reference, resumed, mode)

    def test_checkpoint_is_restorable_twice(self):
        """One in-memory checkpoint feeds two restores without aliasing."""
        config = make_config()
        reference = digest(
            SimulationEngine(config, make_policy("online")).run()
        )
        checkpoint = interrupt_at(
            SimulationEngine(config, make_policy("online")), 137
        )
        first = digest(SimulationEngine.restore(checkpoint).run())
        second = digest(SimulationEngine.restore(checkpoint).run())
        assert_same(reference, first, "first restore")
        assert_same(reference, second, "second restore")

    def test_periodic_checkpoints_do_not_perturb_the_run(self):
        """A run that checkpoints every N slots (no interrupt) is unchanged."""
        config = make_config()
        reference = digest(
            SimulationEngine(config, make_policy("online")).run()
        )
        taken = []
        checkpointer = Checkpointer(taken.append, every_slots=50)
        observed = digest(
            SimulationEngine(config, make_policy("online")).run(
                checkpointer
            )
        )
        assert_same(reference, observed, "checkpointing run")
        assert [cp.slot for cp in taken] == list(range(50, config.total_slots, 50))


class TestTransferCountResumes:
    """The transfer count rides the coupling unit: a checkpoint holds the
    count so far and a resumed run ends on the uninterrupted run's count."""

    @staticmethod
    def build(kind, policy):
        if kind == "sharded":
            return ShardedEngine(make_config(), make_policy(policy), shards=2, inline=True)
        return SimulationEngine(make_config(), make_policy(policy))

    @pytest.mark.parametrize("policy", ["online", "sync"])
    @pytest.mark.parametrize("kind", ["single", "sharded"])
    def test_the_count_resumes_where_it_stopped(self, kind, policy):
        uninterrupted = self.build(kind, policy)
        uninterrupted.run()
        interrupted = self.build(kind, policy)
        checkpoint = interrupt_at(interrupted, 137)
        held = checkpoint.coordinator.materialize().transfers
        assert type(held) is int
        assert held == interrupted.core.transfers >= make_config().num_users
        assert held < uninterrupted.core.transfers
        if kind == "sharded":
            resumed = ShardedEngine.restore(checkpoint, inline=True)
        else:
            resumed = SimulationEngine.restore(checkpoint)
        result = resumed.run()
        assert resumed.core.transfers == uninterrupted.core.transfers
        assert result.comm_bytes_mb == 2.5 * uninterrupted.core.transfers


class TestShardedRoundTrip:
    @pytest.fixture(scope="class")
    def reference(self):
        config = make_config()
        return digest(
            SimulationEngine(config, make_policy("online")).run()
        )

    @pytest.fixture(scope="class")
    def checkpoint(self):
        return interrupt_at(
            ShardedEngine(make_config(), make_policy("online"), shards=2, inline=True),
            137,
        )

    @pytest.mark.parametrize("shards", [2, 3, 1])
    def test_restore_under_any_shard_count(self, reference, checkpoint, shards):
        resumed = digest(
            ShardedEngine.restore(checkpoint, shards=shards, inline=True).run()
        )
        assert_same(reference, resumed, f"2-shard checkpoint -> {shards} shards")

    def test_real_process_shards_roundtrip(self, reference):
        """The same contract with actual worker processes, not inline handles."""
        checkpoint = interrupt_at(
            ShardedEngine(make_config(), make_policy("online"), shards=2), 137
        )
        resumed = digest(ShardedEngine.restore(checkpoint, shards=2).run())
        assert_same(reference, resumed, "process shards")

    def test_reslice_preserves_compacted_dtypes(self, checkpoint):
        """Re-sharding a checkpoint keeps the int32 slot/version counters.

        ``reslice`` concatenates the per-slice arrays and cuts them at the
        new bounds; numpy preserves dtype through both, so a widening here
        would mean someone round-tripped through Python lists or float64.
        """
        import numpy as np

        from repro.service.checkpoint import reslice

        for shards, bounds in ((3, [(0, 2), (2, 4), (4, 5)]), (1, [(0, 5)])):
            slices = reslice(checkpoint.slices, bounds)
            assert len(slices) == shards
            for state in slices:
                fleet = state["fleet"]
                for key in ("waiting_slots", "base_version", "app_end_slot"):
                    assert fleet[key].dtype == np.int32, (shards, key)

    def test_widened_checkpoint_restores_bitwise(self, reference, checkpoint):
        """Checkpoints written before the int32 compaction still restore.

        A pre-compaction snapshot carries the same counters as int64;
        ``FleetState.load_state_dict`` coerces them back down (the values
        are bounded far below 2**31, so the cast is lossless) and the
        resumed run must stay bitwise-identical to the reference.
        """
        import copy

        import numpy as np

        widened = copy.deepcopy(checkpoint)
        for state in widened.slices:
            fleet = state["fleet"]
            for key in ("waiting_slots", "base_version", "app_end_slot"):
                fleet[key] = fleet[key].astype(np.int64)

        engine = ShardedEngine.restore(widened, shards=3, inline=True)

        # The coercion itself, observed directly on one restored shard.
        from repro.service.checkpoint import reslice
        from repro.sim.shard import FleetShard

        lo, hi = engine.bounds[0]
        shard = FleetShard.build(
            config=engine.config,
            lo=lo,
            hi=hi,
            arrivals=engine.arrivals.slice_users(lo, hi),
            measurement_table=engine.table,
        )
        shard.restore_state(reslice(widened.slices, engine.bounds)[0], {})
        for key in ("waiting_slots", "base_version", "app_end_slot"):
            assert getattr(shard.fleet, key).dtype == np.int32, key

        resumed = digest(engine.run())
        assert_same(reference, resumed, "widened (pre-compaction) checkpoint")


class TestResumeWhereBlocksForm:
    """One sample per user: a slot's finishers train as stacked blocks.  A
    mid-run checkpoint, resumed single-process and on two inline or process
    shards, ends on the digest of the reference loop, which trains every
    round alone."""

    CONFIG = dict(
        num_users=40, total_slots=1000, num_train_samples=40, seed=5, num_test_samples=100
    )

    @pytest.fixture(scope="class")
    def reference(self):
        loop = make_engine("loop", make_config(**self.CONFIG), make_policy("online"))
        return run_digest(loop.run())

    @pytest.mark.parametrize("mode", ["single", "inline2", "process2"])
    def test_resume_ends_on_the_per_client_digest(self, monkeypatch, reference, mode):
        blocks = []
        real_block = FLClient.local_train

        def spy(plane, users, *args, **kwargs):
            blocks.append(len(users))
            return real_block(plane, users, *args, **kwargs)

        monkeypatch.setattr(FLClient, "local_train", spy)
        config = make_config(**self.CONFIG)
        checkpoint = interrupt_at(build(mode, config, make_policy("online")), 500)
        assert run_digest(restore(mode, checkpoint).run()) == reference
        if mode != "process2":  # a worker's blocks are not seen here
            assert len(blocks) > 10 and max(blocks) > 2


class TestResumeWhereSomeNeverTrained:
    """Ragged shards of two to sixteen samples: every user that trains makes
    its shuffling generator on its first round.  A checkpoint at a boundary
    where some users have trained and others never have, resumed
    single-process and on two inline or process shards, ends on the digest
    of the reference loop."""

    CONFIG = dict(
        num_users=12, total_slots=900, num_train_samples=96, seed=9,
        num_test_samples=100, non_iid_alpha=0.5, hidden_dims=(8,),
    )
    AT_SLOT = 225  # eight users finished a round, four (two of one sample) not

    @pytest.fixture(scope="class")
    def reference(self):
        loop = make_engine("loop", make_config(**self.CONFIG), make_policy("online"))
        return run_digest(loop.run())

    @pytest.mark.parametrize("mode", ["single", "inline2", "process2"])
    def test_resume_ends_on_the_reference_digest(self, reference, mode):
        config = make_config(**self.CONFIG)
        checkpoint = interrupt_at(build(mode, config, make_policy("online")), self.AT_SLOT)
        clients = [client for piece in checkpoint.slices for client in piece["clients"]]
        rounds = [client["rounds_completed"] for client in clients]
        assert 0 < rounds.count(0) < len(rounds)  # some trained, some never did
        for user, client in enumerate(clients):
            if client["rounds_completed"] == 0:  # never drew: the seeded state
                seeded = np.random.default_rng(config.seed + 1000 + user)
                assert client["rng_state"] == seeded.bit_generator.state
        assert run_digest(restore(mode, checkpoint).run()) == reference


class TestCheckpointStore:
    def test_disk_round_trip_preserves_the_contract(self):
        config = make_config()
        reference = digest(
            SimulationEngine(config, make_policy("online")).run()
        )
        checkpoint = interrupt_at(
            ShardedEngine(config, make_policy("online"), shards=2, inline=True), 137
        )
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(tmp)
            assert not store.exists()
            store.save(checkpoint)
            assert store.exists()
            loaded = store.load()
            assert loaded.slot == checkpoint.slot
            assert [s["lo"] for s in loaded.slices] == [0, 3]  # 5 users, 2 shards
            resumed = digest(
                ShardedEngine.restore(loaded, shards=3, inline=True).run()
            )
        assert_same(reference, resumed, "disk round trip")

    def test_crash_mid_save_keeps_previous_snapshot(self, monkeypatch):
        """A save that dies partway never corrupts the last complete one."""
        config = make_config()
        first = interrupt_at(
            SimulationEngine(config, make_policy("online")), 37
        )
        second = interrupt_at(
            SimulationEngine(config, make_policy("online")), 137
        )
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(tmp)
            store.save(first)

            def dying_write(handle, data):
                handle.write(b"partial")  # truncated garbage, then the "kill"
                raise OSError("simulated crash mid-save")

            with monkeypatch.context() as patch:
                intercept_writes(patch, dying_write)
                with pytest.raises(OSError):
                    store.save(second)

            # The manifest still points at the first, fully-written snapshot.
            assert store.exists()
            loaded = store.load()
            assert loaded.slot == 37

            # The next save succeeds and prunes the partial leftovers; the
            # first snapshot's directory survives only as the pack the new
            # snapshot still references (nobody trained in between).
            store.save(second)
            assert store.load().slot == 137
            assert store.last_save["pruned"] == ["snapshot-00000001"]
            assert snapshot_dirs(store) == ["snapshot-00000000", "snapshot-00000002"]
            assert_only_needed_files_remain(store)

    def test_resave_prunes_superseded_snapshots(self):
        config = make_config()
        first = interrupt_at(
            SimulationEngine(config, make_policy("online")), 37
        )
        second = interrupt_at(
            SimulationEngine(config, make_policy("online")), 137
        )
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(tmp)
            store.save(first)
            store.save(second)
            assert store.load().slot == 137
            assert retained_slots(store) == [137]
            assert_only_needed_files_remain(store)
            # Once nothing of the first snapshot is still current, it goes.
            trained = copy.deepcopy(second)
            for piece in trained.slices:
                for client in piece["clients"]:
                    client["rounds_completed"] += 1
            trained.coordinator.vectors = {
                version + 100: vector
                for version, vector in trained.coordinator.vectors.items()
            }
            store.save(trained)
            assert snapshot_dirs(store) == ["snapshot-00000002"]

    def test_unknown_format_version_is_rejected(self):
        config = make_config()
        checkpoint = interrupt_at(
            SimulationEngine(config, make_policy("online")), 37
        )
        checkpoint.format_version = CHECKPOINT_FORMAT_VERSION + 1
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(tmp)
            store.save(checkpoint)
            with pytest.raises(CheckpointError, match="unsupported"):
                store.load()

    @staticmethod
    def _assert_old_format_rejected(version):
        """No reader shim: a store written by an earlier format is refused."""
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(tmp)
            (store.root / store.MANIFEST).write_text(
                json.dumps({"format_version": version, "latest": "snapshot-00000000",
                            "retained": []})
            )
            with pytest.raises(
                CheckpointError,
                match=rf"format {version} unsupported \(expected {CHECKPOINT_FORMAT_VERSION}\)",
            ):
                store.load()

    def test_format_v3_store_is_rejected(self):
        self._assert_old_format_rejected(3)

    def test_format_v4_store_is_rejected(self):
        """v4 carried ``backend`` in meta.json and ``loop`` in coordinator.pkl."""
        self._assert_old_format_rejected(4)

    def test_format_v5_store_is_rejected(self):
        """v5 pickled the server and the policies with other attribute sets."""
        self._assert_old_format_rejected(5)

    @pytest.mark.parametrize(
        "land",
        [
            pytest.param(lambda data: data[: len(data) // 2], id="short"),
            pytest.param(lambda data: data[:-1] + bytes([data[-1] ^ 1]), id="altered"),
        ],
    )
    def test_torn_write_is_caught_before_the_manifest_flips(self, monkeypatch, land):
        """The read-back is compared with the bytes meant to be written, so a
        write that lands something else cannot hash its way to a checksum."""
        config = make_config()
        first = interrupt_at(
            SimulationEngine(config, make_policy("online")), 37
        )
        second = interrupt_at(
            SimulationEngine(config, make_policy("online")), 137
        )
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(tmp)
            store.save(first)
            with monkeypatch.context() as patch:
                intercept_writes(patch, lambda handle, data: handle.write(land(data)))
                with pytest.raises(CheckpointError, match="write verification"):
                    store.save(second)
            assert retained_slots(store) == [37]
            assert store.load().slot == 37

    def test_at_rest_corruption_of_a_slice_file_is_caught_at_load(self):
        checkpoint = interrupt_at(
            SimulationEngine(make_config(), make_policy("online")), 37
        )
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(tmp)
            store.save(checkpoint)
            (users,) = store.root.glob("snapshot-*/users_*.pkl")
            data = bytearray(users.read_bytes())
            data[len(data) // 2] ^= 0xFF
            users.write_bytes(bytes(data))
            with pytest.raises(CheckpointError, match="corrupt on disk"):
                store.load()


def mutable_objects(root) -> dict:
    """``id -> object`` for every mutable object reachable from ``root``."""
    found, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if isinstance(
            obj, (type(None), bool, int, float, str, bytes, np.generic, enum.Enum, type)
        ) or id(obj) in found:
            continue
        if isinstance(obj, (tuple, frozenset)):
            stack.extend(obj)
            continue
        found[id(obj)] = obj
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, set)):
            stack.extend(obj)
        elif isinstance(obj, np.ndarray):
            if obj.dtype == object:
                stack.extend(obj.ravel().tolist())
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
    return found


class TestSnapshotIsolation:
    """The pickled bytes are the snapshot: no deep copy, same isolation."""

    @pytest.fixture()
    def engine(self):
        # Slot 37 sits inside the opening training flight: every user has
        # downloaded version 0 and pins its base vector.
        engine = SimulationEngine(
            make_config(num_users=8), make_policy("online")
        )
        interrupt_at(engine, 37)
        assert len(engine.core._pinned_base) >= 2
        return engine

    def test_live_mutation_after_capture_does_not_reach_the_snapshot(self, engine):
        core = engine.core
        state = CoordinatorState.capture(core, engine.timers)
        version = core.server.version
        params = core.server.global_params().copy()
        pinned = sorted(core._pinned_base)
        updates = len(core.trace.update_samples)
        evals = len(core.accuracy.samples)

        user = pinned[0]
        update = LocalUpdate(
            user, delta=np.ones_like(params), base_version=version,
            num_samples=1, train_loss=0.0, momentum_norm=0.0, num_batches=1,
        )
        core.apply_async_update(38, [user], [[update]])
        core.accuracy.record(38.0, accuracy=1.0, loss=0.0, num_updates=version + 1)
        core.gaps += 1.0
        assert core.server.version == version + 1

        restored = state.materialize()
        assert restored.server.version == state.num_updates == version
        assert np.array_equal(restored.server.global_params(), params)
        assert sorted(restored.pinned_base) == pinned
        assert len(restored.trace.update_samples) == updates
        assert len(restored.accuracy.samples) == evals
        assert not np.array_equal(restored.gaps, core.gaps)

    def test_two_materializations_share_no_mutable_object(self, engine):
        state = CoordinatorState.capture(engine.core, engine.timers)
        first, second = state.materialize(), state.materialize()
        assert len(mutable_objects(first)) > 30  # the walk is not vacuous
        assert not mutable_objects(first).keys() & mutable_objects(second).keys()
        assert not mutable_objects(first).keys() & mutable_objects(
            engine.core.checkpoint_unit()
        ).keys()

    def test_references_shared_inside_the_unit_stay_shared(self, engine):
        core = engine.core
        live = list(core._pinned_base.values())
        assert all(view is live[0] for view in live)  # one view per version
        restored = CoordinatorState.capture(core, engine.timers).materialize()
        pinned = list(restored.pinned_base.values())
        assert len(pinned) == len(live)
        assert all(view is pinned[0] for view in pinned)
        assert np.array_equal(pinned[0], restored.server.global_params())

    def test_training_after_capture_does_not_reach_a_lent_velocity(self):
        """Velocities are lent to the snapshot, not copied: the next training
        step must continue on a private copy."""
        engine = SimulationEngine(make_config(total_slots=700), make_policy("online"))
        checkpoint = interrupt_at(engine, 300)  # after the first training wave
        lent = [v for piece in checkpoint.slices for v in piece["velocities"]]
        assert any(v is not None for v in lent)
        frozen = [None if v is None else v.copy() for v in lent]
        clients = engine.clients
        for kept, velocity in zip(clients.velocities, lent):
            assert kept is velocity  # no copy at capture
        # One call: the users train as one stacked block, which reads the
        # lent vectors and hands each user a private successor.
        users = list(range(len(clients)))
        FLClient.local_train(
            clients,
            users,
            [engine.server.global_params()] * len(users),
            [engine.server.version] * len(users),
        )
        for kept, velocity in zip(clients.velocities, lent):
            assert kept is not velocity
            assert not np.array_equal(kept, velocity)
        assert same_state(lent, frozen)


# ---------------------------------------------------------------------------
# The write-once store
# ---------------------------------------------------------------------------


def snapshot_slots(reference) -> list:
    """Four boundaries of a 700-slot run: two ordinary ones (before anybody
    finished a round; between the first two training waves), each followed
    by the slot right after an upload was applied — whoever uploaded is
    between upload and next download there and pins no base."""
    applied = sorted({int(update.time_s) for update in reference.trace.update_samples})
    return [150, applied[0] + 1, 400, min(s for s in applied if s > 400) + 1]


def save_then_stop(store, slots):
    """A checkpointer that persists a snapshot at each of ``slots`` and stops
    the run at the last; also returns the list the snapshots land in."""
    taken = []

    def sink(checkpoint):
        store.save(checkpoint)
        taken.append(checkpoint)
        if checkpoint.slot == slots[-1]:
            checkpointer.request_stop()

    checkpointer = Checkpointer(sink, at_slots=slots)
    return checkpointer, taken


def build(kind: str, config, policy):
    if kind == "single":
        return SimulationEngine(config, policy)
    return ShardedEngine(config, policy, shards=2, inline=kind == "inline2")


def restore(kind: str, checkpoint):
    if kind == "single":
        return SimulationEngine.restore(checkpoint)
    return ShardedEngine.restore(checkpoint, shards=2, inline=kind == "inline2")


BATTERY = dict(battery_capacity_j=1_200.0, min_battery_soc=0.75)

RESUME_CASES = [
    pytest.param("single", "single", "online", {}, id="single"),
    pytest.param("inline2", "inline2", "online", {}, id="inline-2"),
    pytest.param("process2", "process2", "online", {}, id="process-2"),
    pytest.param("single", "inline2", "online", {}, id="write-1-restore-2"),
    pytest.param("inline2", "single", "online", {}, id="write-2-restore-1"),
    pytest.param("single", "single", "sync", {}, id="sync"),
    pytest.param("inline2", "single", "sync", BATTERY, id="sync-battery-gated"),
    pytest.param("single", "inline2", "online", BATTERY, id="battery-gated"),
]


class TestResumeFromAStoreOfSeveralSnapshots:
    """Resume-to-horizon from the fourth snapshot of a ``keep_last=2`` store —
    a snapshot that leaves vectors where earlier snapshots wrote them, taken
    while some user pins no base — equals the uninterrupted run."""

    @staticmethod
    def interrupted_store(root, kind, policy, overrides):
        config = make_config(total_slots=700, **overrides)
        reference = SimulationEngine(config, make_policy(policy)).run()
        slots = snapshot_slots(reference)
        store = CheckpointStore(root, keep_last=2)
        checkpointer, taken = save_then_stop(store, slots)
        with pytest.raises(RunInterrupted):
            build(kind, config, make_policy(policy)).run(checkpointer)
        assert [cp.slot for cp in taken] == slots
        assert retained_slots(store) == slots[-2:]
        return store, taken, digest(reference)

    @pytest.mark.parametrize("written_by,restored_by,policy,overrides", RESUME_CASES)
    def test_resume_equals_the_uninterrupted_run(
        self, tmp_path, written_by, restored_by, policy, overrides
    ):
        store, taken, reference = self.interrupted_store(
            tmp_path, written_by, policy, overrides
        )
        loaded = CheckpointStore(tmp_path).load()
        assert same_state(loaded, taken[-1])
        pinned = pickle.loads(loaded.coordinator.payload)[-1]
        assert loaded.pending_arrivals and not set(loaded.pending_arrivals) & set(pinned)
        resumed = digest(restore(restored_by, loaded).run())
        assert_same(reference, resumed, f"{written_by} -> {restored_by}")

    def test_the_resumed_snapshot_references_earlier_packs(self, tmp_path):
        store, taken, _ = self.interrupted_store(tmp_path, "single", "online", {})
        latest = store._read_manifest()["retained"][-1]
        assert latest["refs"] and store.last_save["bytes_referenced"] > 0
        own_pack = store.root / latest["dir"] / store.PACK
        assert 0 < own_pack.stat().st_size < vector_bytes(taken[-1])
        assert_only_needed_files_remain(store)


def engine_checkpoints(slots=(300, 400, 500)):
    """Snapshots of one 700-slot run: nobody trains between 300 and 400 (the
    second snapshot holds the first's vectors), three of five users do
    between 400 and 500."""
    taken = []
    SimulationEngine(make_config(total_slots=700), make_policy("online")).run(
        Checkpointer(taken.append, at_slots=slots)
    )
    return taken


class SimulatedCrash(Exception):
    pass


@contextlib.contextmanager
def crash_at(operation: int):
    """Kill the ``operation``-th file operation the checkpoint module makes
    (1-based): directory creation, every open, the manifest write and flip,
    every delete.  Yields an object whose ``flipped`` says whether the
    manifest rename had completed by then and ``count`` how many ran."""
    state = type("Crash", (), {"count": 0, "flipped": False})()
    patches = [
        (checkpoint_module, "open", builtins.open),
        (os, "replace", os.replace),
        (shutil, "rmtree", shutil.rmtree),
        (Path, "mkdir", Path.mkdir),
        (Path, "unlink", Path.unlink),
        (Path, "write_text", Path.write_text),
    ]

    def guarded(real, is_flip):
        def call(*args, **kwargs):
            state.count += 1
            if state.count == operation:
                raise SimulatedCrash(f"killed at file operation {operation}")
            result = real(*args, **kwargs)
            state.flipped = state.flipped or is_flip
            return result

        return call

    with pytest.MonkeyPatch.context() as patch:
        for owner, name, real in patches:
            patch.setattr(owner, name, guarded(real, real is os.replace), raising=False)
        yield state


def flip_byte(path: Path, position: int) -> bytes:
    """Invert one byte of a file; returns the original content."""
    original = path.read_bytes()
    damaged = bytearray(original)
    damaged[position % len(damaged)] ^= 0xFF
    path.write_bytes(bytes(damaged))
    return original


class TestStoreIntegrity:
    def test_format_v6_store_is_rejected(self):
        """v6 wrote every vector into every snapshot and kept logs as objects."""
        TestCheckpointStore._assert_old_format_rejected(6)

    def test_format_v7_store_is_rejected(self):
        """v7 pickled a network transport into the coupling unit."""
        TestCheckpointStore._assert_old_format_rejected(7)

    def test_crash_at_any_point_of_a_save_leaves_a_loadable_snapshot(self, tmp_path):
        first, second, third = engine_checkpoints()
        store = CheckpointStore(tmp_path)
        store.save(first)
        store.save(second)
        operation, completed = 0, False
        while not completed:
            operation += 1
            with crash_at(operation) as crash:
                try:
                    CheckpointStore(tmp_path).save(third)
                    completed = True
                except SimulatedCrash:
                    pass
            expected = third if crash.flipped else second
            assert same_state(CheckpointStore(tmp_path).load(), expected), operation
            if crash.flipped and not completed:
                # Died while pruning: the next save collects the leftovers.
                recovery = CheckpointStore(tmp_path)
                recovery.load()
                recovery.save(third)
                assert_only_needed_files_remain(recovery)
                shutil.rmtree(tmp_path)
                store = CheckpointStore(tmp_path)
                store.save(first)
                store.save(second)
        assert operation > 10  # the walk covered the whole save

    def test_published_files_are_never_opened_for_writing(self, tmp_path, monkeypatch):
        first, second, third = engine_checkpoints()
        store = CheckpointStore(tmp_path, keep_last=3)
        store.save(first)
        writes = []

        def recording_open(file, mode="r", *args, **kwargs):
            if set(mode) & set("wa+x"):
                writes.append(Path(file))
            return builtins.open(file, mode, *args, **kwargs)

        monkeypatch.setattr(checkpoint_module, "open", recording_open, raising=False)
        for real in (Path.write_bytes, Path.write_text):
            monkeypatch.setattr(
                Path,
                real.__name__,
                lambda path, data, real=real, **kwargs: (
                    writes.append(path), real(path, data, **kwargs)
                )[1],
            )
        for checkpoint in (second, third):
            published = set(snapshot_dirs(store))
            del writes[:]
            store.save(checkpoint)
            assert writes
            assert not [path for path in writes if path.parent.name in published]

    def test_every_file_a_load_uses_is_verified(self, tmp_path):
        """At-rest corruption of the meta file, either head, the snapshot's
        own pack or a pack an earlier snapshot wrote is a ``CheckpointError``
        naming snapshot and file."""
        first, second, _ = engine_checkpoints()
        store = CheckpointStore(tmp_path)
        store.save(first)
        second.slices[0]["velocities"][0] = second.slices[0]["velocities"][0] + 1.0
        second.slices[0]["clients"][0]["rounds_completed"] += 1
        store.save(second)  # one new vector of its own, the rest referenced
        assert 0 < store.last_save["bytes_referenced"]
        latest, (older,) = store.last_save["snapshot"], store._read_manifest()[
            "retained"
        ][-1]["refs"]
        used = [
            f"{latest}/meta.json",
            f"{latest}/coordinator.pkl",
            f"{latest}/users_0_5.pkl",
            f"{latest}/vectors.bin",
            f"{older}/vectors.bin",
        ]
        for name in used:
            original = flip_byte(tmp_path / name, position=40)
            with pytest.raises(CheckpointError, match="corrupt on disk") as error:
                CheckpointStore(tmp_path).load()
            assert latest in str(error.value) and name.split("/")[-1] in str(error.value)
            (tmp_path / name).write_bytes(original)
        assert same_state(CheckpointStore(tmp_path).load(), second)

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda path: path.write_bytes(path.read_bytes()[:-9]), id="short"),
            pytest.param(lambda path: path.unlink(), id="missing"),
        ],
    )
    @pytest.mark.parametrize(
        "name", ["meta.json", "coordinator.pkl", "users_0_5.pkl", "vectors.bin"]
    )
    def test_missing_or_short_files_are_checkpoint_errors(self, tmp_path, name, damage):
        """Reproduced on the parent: a truncated ``meta.json`` was a
        ``JSONDecodeError`` and a missing data file a ``FileNotFoundError``,
        neither of which the service's retry path treats as corruption."""
        (first,) = engine_checkpoints((300,))
        store = CheckpointStore(tmp_path)
        store.save(first)
        damage(tmp_path / store.last_save["snapshot"] / name)
        with pytest.raises(CheckpointError, match=name):
            CheckpointStore(tmp_path).load()

    def test_saves_and_failures_are_logged(self, tmp_path, caplog, monkeypatch):
        first, second, _ = engine_checkpoints()
        store = CheckpointStore(tmp_path)
        with caplog.at_level(logging.INFO, logger="repro.service.checkpoint"):
            store.save(first)
            store.save(second)
        assert [r.levelname for r in caplog.records] == ["INFO", "INFO"]
        message = caplog.records[-1].getMessage()
        last = store.last_save
        assert last["slot"] == 400 and last["snapshot"] == "snapshot-00000001"
        assert last["bytes_written"] > 0 and last["bytes_referenced"] > 0
        assert last["seconds"] > 0 and last["pruned"] == []
        for key in ("slot", "snapshot", "bytes_written", "bytes_referenced", "pruned"):
            assert f"{key}={last[key]}" in message
        assert "seconds=" in message

        caplog.clear()
        with caplog.at_level(logging.INFO, logger="repro.service.checkpoint"):
            with monkeypatch.context() as patch:
                intercept_writes(patch, lambda handle, data: handle.write(data[:-1]))
                with pytest.raises(CheckpointError):
                    store.save(second)
            flip_byte(tmp_path / "snapshot-00000001" / "meta.json", 3)
            with pytest.raises(CheckpointError):
                store.load()
        assert [r.levelname for r in caplog.records] == ["WARNING", "WARNING"]
        assert "write verification" in caplog.records[0].getMessage()
        assert "corrupt on disk" in caplog.records[1].getMessage()

    def test_a_run_is_unchanged_by_an_attached_log_handler(self, tmp_path, caplog):
        config = make_config()
        reference = digest(SimulationEngine(config, make_policy("online")).run())
        store = CheckpointStore(tmp_path)
        with caplog.at_level(logging.DEBUG, logger="repro.service.checkpoint"):
            observed = digest(
                SimulationEngine(config, make_policy("online")).run(
                    Checkpointer(store.save, every_slots=50)
                )
            )
        assert_same(reference, observed, "logged run")
        assert len(caplog.records) == 5


# ---------------------------------------------------------------------------
# The store as a state machine
# ---------------------------------------------------------------------------

USERS = 6
WIDTH = 8


class ToyRun:
    """The part of a run the store cares about: which vectors exist, what
    names them, when they change.  Checkpoints of it are real
    :class:`EngineCheckpoint` objects with opaque heads."""

    def __init__(self) -> None:
        self.rng = np.random.default_rng(0)
        self.config = make_config(num_users=USERS)
        self.slot = 0
        self.version = 0
        self.params = {0: self.rng.standard_normal(WIDTH)}
        self.pinned = {user: 0 for user in range(USERS)}
        self.rounds = [0] * USERS
        self.velocity = [None] * USERS

    def train(self, users) -> None:
        """Each user finishes a round, uploads, and downloads the new model."""
        self.slot += 10
        for user in users:
            self.rounds[user] += 1
            self.velocity[user] = self.rng.standard_normal(WIDTH)
            self.version += 1
            self.params[self.version] = self.rng.standard_normal(WIDTH)
            self.pinned[user] = self.version

    def snapshot(self, shards: int) -> EngineCheckpoint:
        slices = [
            {
                "lo": lo,
                "hi": hi,
                "fleet": {"base_version": np.array(
                    [self.pinned[user] for user in range(lo, hi)], dtype=np.int32
                )},
                "clients": [
                    {"rng_state": {"state": user}, "rounds_completed": self.rounds[user]}
                    for user in range(lo, hi)
                ],
                "velocities": self.velocity[lo:hi],
            }
            for lo, hi in shard_bounds(USERS, shards)
        ]
        return EngineCheckpoint(
            format_version=CHECKPOINT_FORMAT_VERSION,
            slot=self.slot,
            pending_arrivals=[],
            global_ready=0,
            config=self.config,
            trace_level="full",
            coordinator=CoordinatorState(
                payload=pickle.dumps((self.slot, dict(self.pinned))),
                vectors={v: self.params[v] for v in set(self.pinned.values())},
                timer_seconds={},
                num_updates=self.version,
                accuracy=None,
                loss=None,
                queue_length=0.0,
                virtual_queue_length=0.0,
            ),
            slices=slices,
        )


def vector_bytes(checkpoint: EngineCheckpoint) -> int:
    velocities = [v for piece in checkpoint.slices for v in piece["velocities"]]
    vectors = list(checkpoint.coordinator.vectors.values()) + velocities
    return sum(v.nbytes for v in vectors if v is not None)


class StoreMachine(RuleBasedStateMachine):
    """Train, save, crash, corrupt, reopen — in any order."""

    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="store-machine-"))
        self.run = ToyRun()
        self.store = CheckpointStore(self.root)
        self.saved = None  # the last checkpoint whose manifest flip completed
        self.vector_bytes = {}  # snapshot directory -> its checkpoint's vectors

    def teardown(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def published(self, checkpoint) -> None:
        self.saved = checkpoint
        latest = json.loads((self.root / "manifest.json").read_text())["latest"]
        self.vector_bytes[latest] = vector_bytes(checkpoint)

    @rule(users=st.sets(st.integers(0, USERS - 1)))
    def train(self, users) -> None:
        self.run.train(sorted(users))

    @rule(shards=st.sampled_from([1, 2, 3]))
    def save(self, shards) -> None:
        checkpoint = self.run.snapshot(shards)
        self.store.save(checkpoint)
        self.published(checkpoint)
        # Footprint: packs within 2x the vectors of the retained snapshots,
        # nothing else on disk but the retained snapshots' own heads.
        assert_only_needed_files_remain(self.store)
        retained = {e["dir"] for e in self.store._read_manifest()["retained"]}
        packs = sum(p.stat().st_size for p in self.root.glob("*/vectors.bin"))
        assert packs <= 2 * sum(self.vector_bytes[name] for name in retained)
        assert self.store.last_save["bytes_written"] <= sum(
            p.stat().st_size for p in (self.root / self.store.last_save["snapshot"]).iterdir()
        )

    @rule(
        keep_last=st.sampled_from([1, 2, 3]),
        keep_every_slots=st.sampled_from([None, 20, 30]),
        load_first=st.booleans(),
    )
    def reopen(self, keep_last, keep_every_slots, load_first) -> None:
        """A new process over the same directory, maybe with other retention."""
        self.store = CheckpointStore(
            self.root, keep_last=keep_last, keep_every_slots=keep_every_slots
        )
        if load_first and self.saved is not None:
            assert same_state(self.store.load(), self.saved)

    @rule(operation=st.integers(1, 30), shards=st.sampled_from([1, 2]))
    def crash_during_save(self, operation, shards) -> None:
        checkpoint = self.run.snapshot(shards)
        with crash_at(operation) as crash:
            try:
                self.store.save(checkpoint)
            except SimulatedCrash:
                pass
        if crash.flipped:
            self.published(checkpoint)

    @rule(data=st.data())
    def corrupt_any_file(self, data) -> None:
        """A damaged file is either noticed or not part of the snapshot."""
        files = sorted(p for p in self.root.glob("snapshot-*/*") if p.stat().st_size)
        if self.saved is None or not files:
            return
        path = data.draw(st.sampled_from(files))
        original = flip_byte(path, data.draw(st.integers(0, 1 << 16)))
        try:
            loaded = CheckpointStore(self.root).load()
        except CheckpointError:
            pass
        else:
            assert same_state(loaded, self.saved)
        path.write_bytes(original)

    @rule(data=st.data())
    def corrupt_a_referenced_older_pack(self, data) -> None:
        if self.saved is None:
            return
        manifest = json.loads((self.root / "manifest.json").read_text())
        latest = manifest["latest"]
        meta = json.loads((self.root / latest / "meta.json").read_text())
        older = sorted(d for d, pack in meta["packs"].items() if d != latest and pack["rows"])
        if not older:
            return
        directory = data.draw(st.sampled_from(older))
        _, offset, length, _ = data.draw(st.sampled_from(meta["packs"][directory]["rows"]))
        path = self.root / directory / "vectors.bin"
        original = flip_byte(path, offset + data.draw(st.integers(0, length - 1)))
        with pytest.raises(CheckpointError, match=directory):
            CheckpointStore(self.root).load()
        path.write_bytes(original)

    @invariant()
    def the_last_published_snapshot_loads_back(self) -> None:
        if self.saved is None:
            return
        assert same_state(CheckpointStore(self.root).load(), self.saved)
        manifest = json.loads((self.root / "manifest.json").read_text())
        for entry in manifest["retained"]:
            assert (self.root / entry["dir"] / "meta.json").is_file()
            for ref in entry["refs"]:
                assert (self.root / ref / "vectors.bin").is_file()


TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)

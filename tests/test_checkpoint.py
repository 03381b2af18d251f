"""Checkpoint/resume round-trips: both engines, bitwise, at awkward moments.

The contract under test (see ``src/repro/service/checkpoint.py``): a run
interrupted at any slot boundary and restored from its checkpoint finishes
with results bitwise-identical to the uninterrupted run — same energy
folds, same accuracy samples, same queue histories, same trace — for the
single-process engine with and without event-horizon
fast-forward, batched training with train-ahead flights, and the sharded
engine (including restoring under a different shard count).
"""

import builtins
import enum
import json
import tempfile

import numpy as np
import pytest

from repro.core.online import OnlinePolicy
from repro.core.policies import SyncPolicy
from repro.fl.client import LocalUpdate
from repro.service import checkpoint as checkpoint_module
from repro.service.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    CheckpointStore,
    Checkpointer,
    CoordinatorState,
    RunInterrupted,
)
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.shard import ShardedEngine


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
    return OnlinePolicy(v=4000.0, staleness_bound=500.0, epsilon=0.01, distributed=True)


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
        comm=(result.comm_bytes_mb, result.comm_failures),
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

    monkeypatch.setattr(
        checkpoint_module,
        "open",
        lambda *args, **kwargs: Handle(builtins.open(*args, **kwargs)),
        raising=False,
    )


def assert_same(reference: dict, resumed: dict, label: str) -> None:
    for key in reference:
        assert reference[key] == resumed[key], f"{label}: diverged on {key}"


# The interrupt points are chosen to land in qualitatively different run
# states: slot 37 interrupts the opening training flight (under batched
# training the train-ahead scheduler has work in flight), slot 137 falls
# inside a long quiet region (the fast-forward kernel must split it
# exactly at the boundary), and under the sync policy a mid-run slot sits
# inside an open synchronous round with partial uploads buffered.
CASES = [
    pytest.param(False, False, "online", 137, id="fleet-mid-quiet"),
    pytest.param(True, False, "online", 137, id="fleet-ff-mid-quiet"),
    pytest.param(True, False, "online", 37, id="fleet-ff-mid-flight"),
    pytest.param(True, False, "sync", 151, id="fleet-ff-mid-sync-round"),
    pytest.param(True, True, "online", 37, id="fleet-ff-batched-mid-flight"),
]


class TestSingleEngineRoundTrip:
    @pytest.mark.parametrize("ff,batched,policy,at_slot", CASES)
    def test_resume_is_bitwise_identical(self, ff, batched, policy, at_slot):
        config = make_config()
        reference = digest(
            SimulationEngine(
                config, make_policy(policy), fast_forward=ff, batched_training=batched
            ).run()
        )
        checkpoint = interrupt_at(
            SimulationEngine(
                config, make_policy(policy), fast_forward=ff, batched_training=batched
            ),
            at_slot,
        )
        resumed = digest(SimulationEngine.restore(checkpoint).run())
        assert_same(reference, resumed, f"ff={ff}/batched={batched}")

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


class TestShardedRoundTrip:
    @pytest.fixture(scope="class")
    def reference(self):
        config = make_config()
        return digest(
            SimulationEngine(
                config, make_policy("online"), fast_forward=True
            ).run()
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
            batched_training=engine.batched_training,
            training_threads=1,
        )
        shard.restore_state(reslice(widened.slices, engine.bounds)[0])
        for key in ("waiting_slots", "base_version", "app_end_slot"):
            assert getattr(shard.fleet, key).dtype == np.int32, key

        resumed = digest(engine.run())
        assert_same(reference, resumed, "widened (pre-compaction) checkpoint")


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

            # The next save succeeds and prunes the partial leftovers.
            store.save(second)
            assert store.load().slot == 137
            snapshots = [
                p for p in store.root.iterdir()
                if p.is_dir() and p.name.startswith(store.SNAPSHOT_PREFIX)
            ]
            assert len(snapshots) == 1

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
            snapshots = [
                p for p in store.root.iterdir()
                if p.is_dir() and p.name.startswith(store.SNAPSHOT_PREFIX)
            ]
            assert len(snapshots) == 1

    def test_unknown_format_version_is_rejected(self):
        config = make_config()
        checkpoint = interrupt_at(
            SimulationEngine(config, make_policy("online")), 37
        )
        checkpoint.format_version = CHECKPOINT_FORMAT_VERSION + 1
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(tmp)
            store.save(checkpoint)
            with pytest.raises(ValueError, match="unsupported"):
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
            with pytest.raises(ValueError, match=f"format {version} unsupported"):
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
            assert store.retained_slots() == [37]
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
        core.apply_async_update(
            user,
            38,
            LocalUpdate(user, delta=np.ones_like(params), base_version=version,
                        num_samples=1, train_loss=0.0, momentum_norm=0.0,
                        num_batches=1),
            round_number=1,
        )
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

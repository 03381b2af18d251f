"""Shared-state poisoning: workspace and derived state carry nothing over.

Two pieces of state are shared or rebuilt rather than owned, and the bitwise
contract silently assumes each is fully rewritten before it is read:

* the training workspace — every client of a slice trains in one
  :class:`~repro.fl.model.Sequential`, whose ``flat_params`` / ``flat_grads``
  and stacked blocks hold whatever the previous round left there;
* the derived :class:`~repro.sim.fleet.FleetState` columns, which
  ``_rebuild()`` re-derives from the primary arrays on a fast-forward
  rollback and on a checkpoint restore.

Each test fills that state with NaN (and the int8 activity codes with a code
no state has) at the moment it is meant to be dead, and checks that every
upload and the run digest are bitwise those of the clean run, in the
single-process engine and on two inline shards.

A third piece is shared by design: the momentum vectors a checkpoint slice
holds are lent by the optimizers, not copied.  They must never be written
again, and a write into one raises.

A fourth is shared for one call: the clients of a stacked block train in
one ``(k, P)`` program, so a NaN in one client's download or momentum
must stay in that client's row.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracle import DataPartition, client_plane, run_digest, upload_bits
from repro.core.online import OnlinePolicy
from repro.fl.client import BLOCK_BYTES, FLClient
from repro.fl.model import build_mlp
from repro.service.checkpoint import Checkpointer, RunInterrupted
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.fleet import FleetState
from repro.sim.shard import FleetShard, ShardedEngine

#: Float columns ``_rebuild()`` derives; the int8 ``_state`` codes are
#: poisoned separately (no NaN for integers).
DERIVED_FLOAT = (
    "_energy_j",
    "_thermal_target_c",
    "_energy_rows",
    "_progress",
    "_draw_j",
    "_charge_add_j",
    "_corun_free",
    "_corun_throttled",
    "_corun_throttle_c",
)

_REAL_TRAIN = FLClient.local_train
_REAL_REBUILD = FleetState._rebuild
_REAL_INIT = FleetState.__init__
_REAL_CHECKPOINT_STATE = FleetShard.checkpoint_state

#: mode -> (build from a config, restore from a checkpoint)
MODES = {
    "single": (
        lambda config: SimulationEngine(config, OnlinePolicy(v=4000.0)),
        SimulationEngine.restore,
    ),
    "inline-2": (
        lambda config: ShardedEngine(config, OnlinePolicy(v=4000.0), shards=2, inline=True),
        lambda checkpoint: ShardedEngine.restore(checkpoint, shards=2, inline=True),
    ),
}


def _config() -> SimulationConfig:
    return SimulationConfig(
        num_users=10,
        total_slots=1200,
        app_arrival_prob=0.01,
        seed=2,
        num_train_samples=300,
        num_test_samples=100,
        eval_interval_slots=200,
        hidden_dims=(16,),
        device_mix={"pixel2": 0.5, "nexus6": 0.5},
    )


def _recorded_uploads(monkeypatch, before_round=None) -> list:
    """Record every upload in training order; ``before_round(clients)`` runs
    right before each slot's local rounds (the poisoning hook)."""
    uploads = []

    def train(clients, users, bases, base_versions, include_params=True):
        if before_round is not None:
            before_round(clients)
        updates = _REAL_TRAIN(clients, users, bases, base_versions, include_params)
        uploads.extend(upload_bits(update) for update in updates)
        return updates

    monkeypatch.setattr(FLClient, "local_train", train)
    return uploads


def _poison_workspace(clients: FLClient) -> None:
    model = clients.model
    model.flat_params.fill(np.nan)
    model.flat_grads.fill(np.nan)
    if model._block_memory is not None:  # the stacked rounds' blocks
        model._block_memory.fill(np.nan)


def _poisoned_rebuilds(monkeypatch) -> list:
    """Poison every derived column right before each ``_rebuild()`` of a
    fleet that finished construction (a rollback or a restore); returns the
    list those rebuilds are counted in."""
    rebuilds = []

    def init(self, *args, **kwargs):
        _REAL_INIT(self, *args, **kwargs)
        self.poison_rebuilds = True

    def rebuild(self):
        if getattr(self, "poison_rebuilds", False):
            for name in DERIVED_FLOAT:
                getattr(self, name).fill(np.nan)
            self._state.fill(np.iinfo(np.int8).max)
            rebuilds.append(self.num_users)
        _REAL_REBUILD(self)

    monkeypatch.setattr(FleetState, "__init__", init)
    monkeypatch.setattr(FleetState, "_rebuild", rebuild)
    return rebuilds


def _interrupted_then_resumed(mode: str, config, at_slot: int):
    """Run to a checkpoint at ``at_slot``, then resume it to the horizon."""
    build, restore = MODES[mode]
    taken = []
    checkpointer = Checkpointer(
        lambda cp: (taken.append(cp), checkpointer.request_stop()), at_slots=[at_slot]
    )
    with pytest.raises(RunInterrupted):
        build(config).run(checkpointer)
    return restore(taken[0]).run()


@pytest.mark.parametrize("mode", sorted(MODES))
class TestPoisoning:
    def test_nan_workspace_between_rounds(self, monkeypatch, mode):
        config = _config()
        clean = _recorded_uploads(monkeypatch)
        expected = run_digest(MODES[mode][0](config).run())
        poisoned = _recorded_uploads(monkeypatch, _poison_workspace)
        observed = run_digest(MODES[mode][0](config).run())
        assert len(clean) > 20
        assert poisoned == clean
        assert observed == expected

    def test_nan_derived_columns_before_rebuild(self, monkeypatch, mode):
        config = _config()
        clean = _recorded_uploads(monkeypatch)
        expected = run_digest(MODES[mode][0](config).run())
        uploads = _recorded_uploads(monkeypatch)
        rebuilds = _poisoned_rebuilds(monkeypatch)
        # A resume rebuilds every slice from its checkpoint; two-phase
        # fast-forward tries (inline-2) also roll back through _rebuild().
        observed = run_digest(_interrupted_then_resumed(mode, config, 301))
        assert rebuilds
        assert uploads == clean
        assert observed == expected

    def test_a_poisoned_engine_beside_a_clean_one_of_its_configuration(self, monkeypatch, mode):
        """The two share their dataset and arrivals (read-only); a NaN
        workspace in one leaves the other's run that of an engine alone."""
        config = _config()
        build = MODES[mode][0]
        expected = run_digest(build(config).run())
        poisoned, clean = build(config), build(config)
        assert poisoned.dataset is clean.dataset and poisoned.arrivals is clean.arrivals
        for array in poisoned.dataset.train_set() + poisoned.dataset.test_set():
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        active = [True]
        _recorded_uploads(monkeypatch, lambda clients: active[0] and _poison_workspace(clients))
        assert run_digest(poisoned.run()) == expected
        active[0] = False
        assert run_digest(clean.run()) == expected

    def test_a_lent_velocity_refuses_writes(self, monkeypatch, mode):
        config = _config()
        expected = run_digest(MODES[mode][0](config).run())
        refused = []

        def checkpoint_state(self):
            state = _REAL_CHECKPOINT_STATE(self)
            for velocity in state["velocities"]:
                if velocity is not None:
                    with pytest.raises(ValueError, match="read-only"):
                        velocity.fill(np.nan)
                    refused.append(velocity)
            return state

        monkeypatch.setattr(FleetShard, "checkpoint_state", checkpoint_state)
        observed = run_digest(
            MODES[mode][0](config).run(Checkpointer(lambda checkpoint: None, every_slots=100))
        )
        assert refused
        assert observed == expected


def _block_clients(count: int, samples: int = 9) -> FLClient:
    """A plane of ``count`` users of one stacked group (as many samples)."""
    model = build_mlp(input_dim=12, hidden_dims=(16,), seed=5)
    rng = np.random.default_rng(8)
    parts = [
        DataPartition(user, rng.normal(size=(samples, 12)), rng.integers(0, 10, samples))
        for user in range(count)
    ]
    return client_plane(parts, model, batch_size=4, seed=300)


class TestBlockRowIsolation:
    @pytest.mark.parametrize("poisoned", ["base", "velocity"])
    @pytest.mark.parametrize("row", [0, 3, 6])
    def test_a_nan_row_leaves_the_other_rows_solo(self, monkeypatch, poisoned, row):
        count = 7
        stacked, solo = _block_clients(count), _block_clients(count)
        assert BLOCK_BYTES // stacked.model.flat_params.nbytes >= count
        base = stacked.model.get_flat_params()
        # A first round on both sides, one user at a time, so every user
        # carries a velocity into the poisoned round.
        for clients in (stacked, solo):
            for user in range(count):
                FLClient.local_train(clients, [user], [base], [0])
        bases = [base + 0.01 * user for user in range(count)]
        if poisoned == "base":
            bases[row] = bases[row].copy()
            bases[row][5] = np.nan
        else:
            for clients in (stacked, solo):
                velocity = clients.velocities[row].copy()
                velocity[5] = np.nan
                clients.velocities[row] = velocity
        blocks = []
        real_block = FLClient._train_block

        def spy(clients, users, *args):
            blocks.append(len(users))
            return real_block(clients, users, *args)

        monkeypatch.setattr(FLClient, "_train_block", spy)
        got = FLClient.local_train(stacked, list(range(count)), bases, [1] * count)
        assert blocks == [count]
        want = [
            FLClient.local_train(solo, [user], [base], [1])[0]
            for user, base in enumerate(bases)
        ]
        assert np.isnan(got[row].delta).any()
        for user in range(count):
            if user == row:
                continue
            assert upload_bits(got[user]) == upload_bits(want[user])
            assert stacked.velocities[user].tobytes() == solo.velocities[user].tobytes()

"""A slot's uploads stream into the server one training block at a time.

Contracts under test (``SlotUploads`` in ``src/repro/sim/shard.py``,
``ParameterServer.async_update_block``, ``CouplingCore.apply_async_update``
and the upload merge in ``drive_fleet_loop``):

* at every ``FLClient.local_train`` call, at most one block of uploads per
  sample-count group is alive, and none from an earlier slot — counted with
  weak references to the blocks' ``(k, P)`` delta arrays, on a one-sample
  burst of many blocks and on a slot whose groups interleave;
* the stream merges in ascending user order: the update log, the final
  parameters, every upload's momentum norm and the transfer count are the
  reference loop's, which trains and merges one user at a time, single
  process and on two inline shards;
* training the merge pulls is charged to ``training`` only, never also to
  ``coupling``.
"""

from __future__ import annotations

import time
import weakref
from collections import Counter

import numpy as np
import pytest

from oracle import make_engine, run_digest
from repro.core.online import OnlinePolicy
from repro.core.policies import ImmediatePolicy
from repro.fl import client as client_mod
from repro.fl.client import FLClient
from repro.sim.config import SimulationConfig
from repro.sim.coupling import CouplingCore
from repro.sim.engine import SimulationEngine
from repro.sim.shard import FleetShard, ShardedEngine

#: Parameters of the ``hidden_dims=(8,)`` MLP the configs below train.
PARAM_BYTES = 4880


def _one_sample_config() -> SimulationConfig:
    """Sixty one-sample users, one phone model, no apps: everyone trains from
    slot 0 under ``ImmediatePolicy`` and finishes in one burst slot, twice."""
    return SimulationConfig(
        num_users=60, total_slots=480, app_arrival_prob=0.0, seed=1,
        num_train_samples=60, num_test_samples=40, hidden_dims=(8,),
        device_mix={"pixel2": 1.0}, eval_interval_slots=240,
    )


def _interleaved_config() -> SimulationConfig:
    """Twenty-four users whose label-skewed shards hold 1, 2, 3, 4, 9, 10 or
    11 samples, interleaved in user order; one burst slot per round."""
    return SimulationConfig(
        num_users=24, total_slots=480, app_arrival_prob=0.0, seed=3,
        num_train_samples=96, num_test_samples=40, hidden_dims=(8,),
        non_iid_alpha=0.5, device_mix={"pixel2": 1.0}, eval_interval_slots=240,
    )


class UploadCensus:
    """Weak references to every upload block ``FLClient.local_train`` hands
    out, tagged with the slot the shards last ran and the block's sample
    count; after each call, the blocks still alive per group and from
    earlier slots."""

    def __init__(self, monkeypatch) -> None:
        self.slot = -1
        self.blocks = []  # (slot, samples, weakref to the (k, P) delta array)
        self.calls = []  # per call: (most alive blocks of one group, alive from earlier slots)
        self.sizes = []  # per call: how many users it trained
        real_train, real_run_slot = FLClient.local_train, FleetShard.run_slot

        def run_slot(shard, slot, *args):
            self.slot = slot
            return real_run_slot(shard, slot, *args)

        def local_train(plane, users, *args, **kwargs):
            updates = real_train(plane, users, *args, **kwargs)
            arrays = {id(update.delta.base): update for update in updates}
            for update in arrays.values():
                self.blocks.append(
                    (self.slot, update.num_samples, weakref.ref(update.delta.base))
                )
            del arrays, update
            self.sizes.append(len(users))
            alive = [(slot, samples) for slot, samples, ref in self.blocks if ref() is not None]
            per_group = Counter(samples for slot, samples in alive if slot == self.slot)
            earlier = sum(1 for slot, _ in alive if slot < self.slot)
            self.calls.append((max(per_group.values(), default=0), earlier))
            return updates

        monkeypatch.setattr(FleetShard, "run_slot", run_slot)
        monkeypatch.setattr(FLClient, "local_train", local_train)

    def groups_per_slot(self) -> Counter:
        """Blocks made per ``(slot, samples)`` group."""
        return Counter((slot, samples) for slot, samples, _ in self.blocks)


ENGINES = {
    "single": lambda config, policy: SimulationEngine(config, policy),
    "inline-2": lambda config, policy: ShardedEngine(config, policy, shards=2, inline=True),
}


class TestLiveUploadBound:
    @pytest.mark.parametrize("mode", sorted(ENGINES))
    def test_a_one_sample_burst_holds_one_block(self, monkeypatch, mode):
        monkeypatch.setattr(client_mod, "BLOCK_BYTES", 8 * PARAM_BYTES)
        census = UploadCensus(monkeypatch)
        ENGINES[mode](_one_sample_config(), ImmediatePolicy()).run()
        bursts = [count for (_, samples), count in census.groups_per_slot().items()]
        assert len(bursts) >= 2 and min(bursts) >= 4  # every burst spans >= 4 blocks
        assert [alive for alive, _ in census.calls] == [1] * len(census.calls)
        assert [earlier for _, earlier in census.calls] == [0] * len(census.calls)
        assert max(census.sizes) == 8  # one call per block

    @pytest.mark.parametrize("mode", sorted(ENGINES))
    def test_interleaved_groups_hold_one_block_each(self, monkeypatch, mode):
        monkeypatch.setattr(client_mod, "BLOCK_BYTES", 2 * PARAM_BYTES)
        census = UploadCensus(monkeypatch)
        ENGINES[mode](_interleaved_config(), ImmediatePolicy()).run()
        groups = census.groups_per_slot()
        bursts = {slot for slot, _ in groups}
        assert len(bursts) >= 2
        for slot in bursts:
            spans = [count for (at, _), count in groups.items() if at == slot]
            assert len(spans) >= 3 and sorted(spans)[-3] >= 2  # >= 3 groups of several blocks
        assert max(alive for alive, _ in census.calls) == 1
        assert max(earlier for _, earlier in census.calls) == 0

    @pytest.mark.parametrize("mode", sorted(ENGINES))
    def test_no_upload_outlives_its_slot(self, monkeypatch, mode):
        """Co-running decisions spread the finishes over the horizon, so
        uploads are made in back-to-back slots."""
        config = SimulationConfig(
            num_users=40, total_slots=900, app_arrival_prob=0.01, seed=2,
            num_train_samples=200, num_test_samples=40, hidden_dims=(8,),
            eval_interval_slots=300,
        )
        census = UploadCensus(monkeypatch)
        ENGINES[mode](config, OnlinePolicy(v=4000.0)).run()
        slots = sorted({slot for slot, _, _ in census.blocks})
        assert any(later == slot + 1 for slot, later in zip(slots, slots[1:]))
        assert max(earlier for _, earlier in census.calls) == 0


class TestStreamOrder:
    """The interleaved slots merge as the reference loop merges them."""

    @staticmethod
    def _observed(engine, monkeypatch):
        norms = {}
        real_train = FLClient.local_train

        def local_train(plane, users, *args, **kwargs):
            updates = real_train(plane, users, *args, **kwargs)
            for update in updates:
                norms.setdefault(update.user_id, []).append(update.momentum_norm)
            return updates

        monkeypatch.setattr(FLClient, "local_train", local_train)
        result = engine.run()
        monkeypatch.setattr(FLClient, "local_train", real_train)
        return (
            run_digest(result),
            [column.tobytes() for column in engine.server.updates.columns()],
            engine.server.global_params().tobytes(),
            norms,
            engine.core.transfers,
        )

    def test_every_mode_merges_as_the_reference_loop(self, monkeypatch):
        monkeypatch.setattr(client_mod, "BLOCK_BYTES", 2 * PARAM_BYTES)
        config = _interleaved_config()
        want = self._observed(make_engine("loop", config, ImmediatePolicy()), monkeypatch)
        assert want[4] > 2 * config.num_users and len(want[3]) == config.num_users
        for mode, build in ENGINES.items():
            assert self._observed(build(config, ImmediatePolicy()), monkeypatch) == want, mode


class TestProfileAccounting:
    """``--profile``: rounds the upload merge trains are ``training`` time."""

    def test_a_slowed_round_is_training_not_coupling(self, monkeypatch):
        delay_s = 0.01
        inside = []
        real_train, real_apply = FLClient.local_train, CouplingCore.apply_async_update
        merging = []

        def apply_async_update(core, *args):
            merging.append(True)
            try:
                return real_apply(core, *args)
            finally:
                merging.pop()

        def local_train(plane, *args, **kwargs):
            inside.append(bool(merging))
            time.sleep(delay_s)
            return real_train(plane, *args, **kwargs)

        monkeypatch.setattr(CouplingCore, "apply_async_update", apply_async_update)
        monkeypatch.setattr(FLClient, "local_train", local_train)
        monkeypatch.setattr(client_mod, "BLOCK_BYTES", 8 * PARAM_BYTES)
        result = SimulationEngine(_one_sample_config(), ImmediatePolicy(), profile=True).run()
        timers = result.timers
        added = delay_s * len(inside)
        assert len(inside) >= 8 and all(inside)  # the merge pulled every block
        assert timers.seconds["training"] >= added
        assert timers.seconds["coupling"] < added / 4
        assert sum(timers.seconds.values()) <= timers.total_s
        assert np.isclose(sum(result.timing_shares().values()), 1.0)

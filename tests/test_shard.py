"""Sharded fleet engine: bitwise shard-count invariance and its substrate.

The contract (see :mod:`repro.sim.shard`) is *bitwise* identity, not
approximate agreement: for any shard count, a :class:`ShardedEngine` run
must produce the same decisions, energy, queues, traces and accuracy curve
as the single-process fleet fast-forward engine — every floating-point value
compared with ``==``.  The matrix here covers the paper-baseline scenario
and a heterogeneous registry scenario (per-cohort devices, connectivity and
arrivals), sync-round quorums that span shards, battery flips inside quiet
regions (the two-phase fast-forward commit), and ragged last-shard sizing.

The substrate pieces ride along: schedule slicing, the memory-bounded
``trace_level`` telemetry, and the shared-memory data plane
(the packed ``run_slot`` upload block, a frame-size gate counted in bytes).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.online import OnlinePolicy
from repro.core.policies import ImmediatePolicy, SyncPolicy
from repro.fl.client import LocalUpdate
from repro.fl.server import AsyncUpdateRule, ParameterServer
from repro.scenarios import compile_scenario, get_scenario
from repro.sim import shard as shard_mod
from repro.sim.arrivals import ArrivalSchedule, BernoulliArrivalProcess
from repro.sim.config import SimulationConfig
from repro.sim.coupling import CouplingCore
from repro.sim.engine import SimulationEngine
from repro.sim.shard import (
    FleetShard,
    ProcessShardHandle,
    QuietTryReply,
    ShardedEngine,
    SlotExecReply,
    SlotUploads,
    shard_bounds,
)
from repro.sim.shmplane import _INLINE_MAX, REPLY, ShardMailbox

from oracle import energy_breakdowns, total_arrivals, upload_bits

PHONE_MIX = {"pixel2": 1.0 / 3, "nexus6": 1.0 / 3, "nexus6p": 1.0 / 3}


def _scenario_config(name: str, **overrides) -> SimulationConfig:
    """A registry scenario's compiled config, scaled down for test speed."""
    compiled = compile_scenario(get_scenario(name))
    config = dict(compiled.overrides)
    config.update(overrides)
    return SimulationConfig(**config)


def _observables(result, num_users: int) -> dict:
    """Everything the bitwise contract covers, ``==``-comparable."""
    return {
        "energy_j": result.total_energy_j(),
        "breakdowns": tuple(energy_breakdowns(result.accountant, num_users)),
        "accuracies": tuple(result.accuracy.accuracies()),
        "accuracy_times": tuple(result.accuracy.times()),
        "num_updates": result.num_updates,
        "decision_evaluations": result.decision_evaluations,
        "decisions": dict(result.trace.decisions),
        "corun_jobs": result.trace.corun_jobs,
        "background_jobs": result.trace.background_jobs,
        "slot_samples": tuple(result.trace.slot_samples),
        "update_samples": tuple(result.trace.update_samples),
        "user_gaps": tuple(
            tuple(result.trace.per_user_gaps.get(u, ())) for u in range(num_users)
        ),
        "queue_history": tuple(result.queue_history),
        "virtual_queue_history": tuple(result.virtual_queue_history),
        "mean_queue": result.mean_queue_length(),
        "mean_virtual": result.mean_virtual_queue_length(),
        "comm_bytes_mb": result.comm_bytes_mb,
        "battery_soc": tuple(result.final_battery_soc),
        "device_names": tuple(result.device_names),
    }


def _assert_shard_invariant(config: SimulationConfig, make_policy, shard_counts=(1, 2, 4)):
    """Sharded runs must match the single-process fleet fast-forward run."""
    single = SimulationEngine(config, make_policy()).run()
    expected = _observables(single, config.num_users)
    for shards in shard_counts:
        sharded = ShardedEngine(config, make_policy(), shards=shards).run()
        observed = _observables(sharded, config.num_users)
        mismatched = [key for key in expected if observed[key] != expected[key]]
        assert not mismatched, f"shards={shards} diverged on {mismatched}"
    return single


class TestShardBounds:
    def test_even_split_is_contiguous(self):
        assert shard_bounds(100, 4) == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_ragged_last_shard_is_smallest(self):
        bounds = shard_bounds(10, 4)
        assert bounds == [(0, 3), (3, 6), (6, 8), (8, 10)]
        sizes = [hi - lo for lo, hi in bounds]
        assert sum(sizes) == 10 and max(sizes) - min(sizes) <= 1
        assert sizes[-1] == min(sizes)

    def test_more_shards_than_users_clamps(self):
        assert shard_bounds(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            shard_bounds(0, 2)
        with pytest.raises(ValueError):
            shard_bounds(10, 0)


class TestShardCountInvariance:
    """The acceptance matrix: shards in {1, 2, 4} bitwise vs single-process."""

    def test_paper_baseline_scaled(self):
        config = _scenario_config(
            "paper-baseline",
            total_slots=300,
            app_arrival_prob=0.01,
            num_train_samples=500,
            num_test_samples=200,
            eval_interval_slots=150,
        )
        result = _assert_shard_invariant(config, lambda: OnlinePolicy(v=4000.0))
        assert result.num_updates > 0  # the comparison must cover real uploads

    def test_heterogeneous_registry_scenario(self):
        # flagship-vs-budget pins per-cohort device mixes and connectivity,
        # so the comparison exercises per-user arrays across shard borders.
        config = _scenario_config(
            "flagship-vs-budget",
            total_slots=250,
            num_train_samples=400,
            num_test_samples=150,
            eval_interval_slots=125,
        )
        result = _assert_shard_invariant(config, lambda: OnlinePolicy(v=4000.0))
        assert result.num_updates > 0

    def test_ragged_last_shard_run(self):
        # 10 users over 4 shards: sizes 3/3/2/2 (the ragged tail).
        config = SimulationConfig(
            num_users=10,
            total_slots=250,
            app_arrival_prob=0.01,
            seed=5,
            num_train_samples=300,
            num_test_samples=120,
            eval_interval_slots=125,
        )
        _assert_shard_invariant(config, ImmediatePolicy, shard_counts=(4,))


class TestShmPlane:
    """The shared-memory doorbell data plane: engaged, bypassed, spilled."""

    def _config(self) -> SimulationConfig:
        return SimulationConfig(
            num_users=12,
            total_slots=250,
            app_arrival_prob=0.01,
            seed=3,
            num_train_samples=300,
            num_test_samples=120,
            eval_interval_slots=125,
        )

    def _single(self, config):
        return _observables(
            SimulationEngine(config, OnlinePolicy(v=4000.0)).run(),
            config.num_users,
        )

    def test_plane_is_engaged_and_bitwise(self, monkeypatch):
        # The default sharded run must actually create mailbox segments and
        # push doorbell frames through them — not silently fall back to
        # plain pickle — while staying bitwise vs the single-process run.
        from repro.sim import shmplane

        created = []
        encoded = []
        real_create = shmplane.ShardMailbox.create.__func__
        real_encode = shmplane.ShardMailbox.encode

        def counting_create(cls, request_bytes, reply_bytes):
            box = real_create(cls, request_bytes, reply_bytes)
            created.append(box)
            return box

        def counting_encode(self, obj, region, copy):
            frame = real_encode(self, obj, region, copy)
            if frame and frame[0] != 0x80:  # doorbell, not pickle fallback
                encoded.append(region)
            return frame

        monkeypatch.setattr(
            shmplane.ShardMailbox, "create", classmethod(counting_create)
        )
        monkeypatch.setattr(shmplane.ShardMailbox, "encode", counting_encode)
        config = self._config()
        expected = self._single(config)
        sharded = ShardedEngine(config, OnlinePolicy(v=4000.0), shards=2).run()
        assert _observables(sharded, config.num_users) == expected
        assert len(created) == 2  # one mailbox per shard
        assert encoded  # doorbell frames actually carried protocol traffic

    def test_slab_spill_falls_back_bitwise(self, monkeypatch):
        # Shrink the mailbox until every parameter-sized payload overflows
        # the slab: the codec must spill to plain in-band pickle (the slab
        # is an optimization, never a correctness constraint) and the run
        # must stay bitwise.
        monkeypatch.setattr(shard_mod, "_mailbox_bytes", lambda n, p: (4096, 4096))
        config = self._config()
        expected = self._single(config)
        sharded = ShardedEngine(config, OnlinePolicy(v=4000.0), shards=2).run()
        assert _observables(sharded, config.num_users) == expected

    def test_battery_flip_inside_quiet_region(self):
        # Charging batteries re-enter the pool mid-region: the two-phase
        # quiet commit must keep every shard in lock-step.
        config = SimulationConfig(
            num_users=10,
            total_slots=1000,
            app_arrival_prob=0.002,
            seed=1,
            num_train_samples=240,
            num_test_samples=100,
            eval_interval_slots=400,
            device_mix=PHONE_MIX,
            battery_capacity_j=1200.0,
            battery_charge_rate_w=2.0,
            min_battery_soc=0.2,
        )
        _assert_shard_invariant(config, ImmediatePolicy, shard_counts=(2, 3))


class TestProfileShares:
    """``EngineTimers.shares`` promises values that sum to 1 — in every mode."""

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda c, p: SimulationEngine(c, p, profile=True), id="single"),
            pytest.param(
                lambda c, p: ShardedEngine(c, p, shards=2, inline=True, profile=True),
                id="inline-2-shard",
            ),
            pytest.param(
                lambda c, p: ShardedEngine(c, p, shards=2, profile=True),
                id="process-2-shard",
            ),
        ],
    )
    def test_shares_sum_to_one_with_a_positive_remainder(self, build, monkeypatch):
        # The slot's schedule block (in-flight merge, gap write) is
        # coordinator work in every mode and belongs to ``policy``: a
        # registration that takes a known time must show up there.
        registrations = []
        register = ParameterServer.register_inflight_block

        def slow_register(self, user_ids, finishes_s):
            registrations.append(len(user_ids))
            time.sleep(0.002)
            register(self, user_ids, finishes_s)

        monkeypatch.setattr(ParameterServer, "register_inflight_block", slow_register)
        # Training-heavy on purpose: worker training seconds exceed the
        # coordinator's unattributed remainder, so adding them to buckets
        # that already contain them (inside ipc_recv) overshoots the wall.
        config = SimulationConfig(
            num_users=12,
            total_slots=400,
            app_arrival_prob=0.01,
            seed=3,
            num_train_samples=6000,
            num_test_samples=120,
            eval_interval_slots=200,
        )
        result = build(config, ImmediatePolicy()).run()
        shares = result.timing_shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["slot_loop"] > 0.0
        assert len(registrations) > 10 and sum(registrations) == result.trace.decisions["schedule"]
        assert result.timers.seconds["policy"] >= 0.002 * len(registrations)
        worker_training = result.timers.worker_training_s
        if shares["ipc_recv"] > 0.0:  # worker processes: reported beside, per shard
            assert shares["training"] == 0.0
            assert len(worker_training) == 2 and min(worker_training) > 0.0
        else:
            assert shares["training"] > 0.0 and worker_training == []


def _reply_bits(reply: SlotExecReply) -> tuple:
    """Everything a ``run_slot`` reply carries, bit for bit."""
    return (
        [
            (user, upload_bits(update))
            for user, update in zip(reply.uploads.users, reply.uploads.collect())
        ],
        reply.tick_total,
        None if reply.tick_user_totals is None else reply.tick_user_totals.tobytes(),
        reply.next_ready,
        reply.spec_open,
    )


def _decoded_replies(monkeypatch) -> list:
    """Record ``(frame, uploads)`` for every ``run_slot`` reply the
    coordinator decodes from a process shard (the reply lets its uploads go
    once they are merged)."""
    replies = []
    real_decode = ShardMailbox.decode

    def decode(self, frame):
        message = real_decode(self, frame)
        if isinstance(message[1], SlotExecReply):
            replies.append((frame, message[1].uploads.collect()))
        return message

    monkeypatch.setattr(ShardMailbox, "decode", decode)
    return replies


class TestUploadBlock:
    """A slot's uploads cross the process boundary as one packed block.

    ``SlotExecReply`` pickles its finishers as a float64 meta matrix, a
    ``(k, P)`` delta block and, under a params-carrying merge rule, a
    ``(k, P)`` params block; two deltas of the megafleet model (1,210
    parameters, 9.7 KB each) already pass the shm plane's inline cut, so
    the slab carries them and the doorbell frame carries none.
    """

    P = 1210

    def _reply(self, users, with_params, seed=0) -> SlotExecReply:
        rng = np.random.default_rng(seed)
        updates = []
        for user in users:
            delta = rng.normal(size=self.P)
            delta[:3] = (-0.0, np.inf, np.nan)  # bits, not values
            update = LocalUpdate(
                user_id=user,
                delta=delta,
                base_version=int(rng.integers(1 << 40)),
                num_samples=int(rng.integers(1, 500)),
                train_loss=float(rng.normal()),
                momentum_norm=float(rng.random()),
                num_batches=int(rng.integers(1, 50)),
                params=rng.normal(size=self.P) if with_params else None,
            )
            updates.append(update)
        return SlotExecReply(
            uploads=SlotUploads(list(users), updates),
            tick_total=float(rng.random()),
            tick_user_totals=rng.normal(size=6),
            next_ready=len(users),
        )

    @staticmethod
    def _exchange(mailbox: ShardMailbox, reply: SlotExecReply):
        frame = mailbox.encode(("ok", reply), REPLY, copy=True)
        status, decoded = mailbox.decode(frame)
        assert status == "ok"
        return frame, decoded

    @pytest.mark.parametrize("with_params", [False, True], ids=["accumulate", "params"])
    @pytest.mark.parametrize("users", [[], [7], [3, 5, 8, 11]], ids=["zero", "one", "four"])
    def test_round_trip_is_bitwise_and_outlives_the_slab(self, users, with_params):
        reply = self._reply(users, with_params)
        expected = _reply_bits(reply)
        mailbox = ShardMailbox.create(*shard_mod._mailbox_bytes(12, self.P * 8))
        try:
            frame, decoded = self._exchange(mailbox, reply)
            assert _reply_bits(decoded) == expected
            if len(users) > 1:
                assert len(frame) < self.P * 8  # the blocks went out-of-band
                blocks = {id(update.delta.base) for update in decoded.uploads.collect()}
                assert len(blocks) == 1  # rows of one private block
            # The next exchange overwrites the reply slab; decoded rows are
            # private copies, so they must not move.
            self._exchange(mailbox, self._reply(users, with_params, seed=1))
            assert _reply_bits(decoded) == expected
        finally:
            mailbox.destroy()

    def test_spilled_reply_is_bitwise(self, monkeypatch):
        monkeypatch.setattr(shard_mod, "_mailbox_bytes", lambda n, p: (4096, 4096))
        reply = self._reply([2, 4, 6], with_params=True)
        mailbox = ShardMailbox.create(*shard_mod._mailbox_bytes(12, self.P * 8))
        try:
            frame, decoded = self._exchange(mailbox, reply)
            assert frame[0] == 0x80  # a plain pickle frame, not a doorbell
            assert _reply_bits(decoded) == _reply_bits(reply)
        finally:
            mailbox.destroy()

    @pytest.mark.parametrize("rule", [AsyncUpdateRule.REPLACE, AsyncUpdateRule.MIXING])
    def test_params_rules_on_process_shards(self, monkeypatch, rule):
        config = SimulationConfig(
            num_users=8,
            total_slots=300,
            app_arrival_prob=0.01,
            seed=4,
            num_train_samples=240,
            num_test_samples=100,
            eval_interval_slots=150,
            hidden_dims=(16,),
            async_rule=rule,
        )
        replies = _decoded_replies(monkeypatch)
        sharded = ShardedEngine(config, OnlinePolicy(v=4000.0), shards=2).run()
        single = SimulationEngine(config, OnlinePolicy(v=4000.0)).run()
        assert _observables(sharded, config.num_users) == _observables(
            single, config.num_users
        )
        shipped = [update for _, updates in replies for update in updates]
        assert shipped and all(update.params is not None for update in shipped)

    def test_sync_uploads_parked_across_slots(self, monkeypatch):
        # Heterogeneous phones finish a round in different slots, so the
        # early uploads sit in the coordinator's sync buffer while later
        # replies reuse the slab their blocks were decoded from.
        config = SimulationConfig(
            num_users=8,
            total_slots=600,
            app_arrival_prob=0.01,
            seed=0,
            num_train_samples=240,
            num_test_samples=100,
            eval_interval_slots=300,
            hidden_dims=(16,),
            device_mix=PHONE_MIX,
        )
        parked = []  # slots that ended with uploads still buffered
        real_complete = CouplingCore.maybe_complete_sync_round

        def complete(self, slot, stalled_fn=None):
            released = real_complete(self, slot, stalled_fn)
            if self.sync_buffer:
                parked.append(slot)
            return released

        monkeypatch.setattr(CouplingCore, "maybe_complete_sync_round", complete)
        replies = _decoded_replies(monkeypatch)
        sharded = ShardedEngine(config, SyncPolicy(), shards=2).run()
        monkeypatch.undo()
        single = SimulationEngine(config, SyncPolicy()).run()
        assert _observables(sharded, config.num_users) == _observables(
            single, config.num_users
        )
        assert len(set(parked)) > 1 and sharded.num_updates > 0
        assert any(updates for _, updates in replies)


class TestPayloadGate:
    """Host-free gate on the data plane: no run_slot reply frame carries
    parameter bytes in-band, counted in bytes, not seconds."""

    def test_uploads_never_ride_the_doorbell(self, monkeypatch):
        config = SimulationConfig(
            num_users=8,
            total_slots=400,
            app_arrival_prob=0.0,
            seed=1,
            num_train_samples=240,
            num_test_samples=100,
            eval_interval_slots=200,
            hidden_dims=(16,),
            device_mix={"pixel2": 1.0},
        )
        replies = _decoded_replies(monkeypatch)
        ShardedEngine(config, ImmediatePolicy(), shards=2).run()
        vector_nbytes = SimulationEngine(config, ImmediatePolicy()).server.global_params().nbytes
        assert vector_nbytes < _INLINE_MAX  # each delta alone would stay in-band
        multi = [len(frame) for frame, updates in replies if len(updates) >= 2]
        assert multi, "no slot had two finishers on one shard"
        assert all(frame[0] != 0x80 for frame, _ in replies)  # no spill
        assert max(multi) < vector_nbytes


class TestRoundTrips:
    """One round trip per shard per executed slot, counted without a clock.

    Under asynchronous aggregation a finisher re-arrives the next slot;
    ``run_slot`` re-arms it inside its speculative open and the download
    rides the next ``run_slot`` request, so no ``open_slot`` is ever sent
    just for a shard's own finishers.  A fast-forward try that the shards
    settle on zero slots is never committed.
    """

    def _config(self) -> SimulationConfig:
        return SimulationConfig(
            num_users=12,
            total_slots=260,
            app_arrival_prob=0.01,
            seed=3,
            num_train_samples=240,
            num_test_samples=120,
            eval_interval_slots=130,
            trace_interval_slots=20,
        )

    def _counted_run(self, monkeypatch, make_policy):
        """A 2-process-shard run with every post and reply recorded per handle."""
        posts = []  # (handle id, method, args)
        replies = []  # (handle id, reply)
        post, wait = ProcessShardHandle.post, ProcessShardHandle.wait

        def counted_post(self, method, *args):
            posts.append((id(self), method, args))
            post(self, method, *args)

        def counted_wait(self):
            reply = wait(self)
            replies.append((id(self), reply))
            return reply

        monkeypatch.setattr(ProcessShardHandle, "post", counted_post)
        monkeypatch.setattr(ProcessShardHandle, "wait", counted_wait)
        config = self._config()
        sharded = ShardedEngine(config, make_policy(), shards=2).run()
        single = SimulationEngine(config, make_policy()).run()
        assert _observables(sharded, config.num_users) == _observables(
            single, config.num_users
        )
        return posts, replies

    @staticmethod
    def _own_finisher_opens(posts, replies):
        """``open_slot`` posts whose arrivals are the shard's last finishers."""
        finished = {}  # handle id -> users its last run_slot finished
        events = iter(replies)
        opens = []
        for handle, method, args in posts:
            if method == "open_slot" and len(args[1]):
                if list(args[1]) == finished.get(handle):
                    opens.append(args[0])
            owner, reply = next(events)  # one reply per post, in order
            assert owner == handle
            if isinstance(reply, SlotExecReply):
                finished[handle] = reply.uploads.users
        return opens

    @staticmethod
    def _zero_commits(posts):
        return [args for _, method, args in posts if method == "quiet_commit" and args[0] == 0]

    def test_async_finishers_re_arm_and_zero_tries_need_no_commit(self, monkeypatch):
        posts, replies = self._counted_run(monkeypatch, lambda: OnlinePolicy(v=4000.0))
        assert self._own_finisher_opens(posts, replies) == []
        assert self._zero_commits(posts) == []
        # The run exercised both paths: finishers re-armed, tries settled on 0.
        rearmed = [
            reply for _, reply in replies
            if isinstance(reply, SlotExecReply) and reply.uploads.users and reply.spec_open
        ]
        zero_tries = [
            reply for _, reply in replies
            if isinstance(reply, QuietTryReply) and reply.advanced == 0
        ]
        assert rearmed and zero_tries
        assert any(reply.spec_open is not None for reply in zero_tries)
        downloads = [args[7] for _, method, args in posts if method == "run_slot" and args[7]]
        assert len(downloads) == len(rearmed)

    def test_sync_rounds_keep_the_explicit_open(self, monkeypatch):
        posts, _ = self._counted_run(monkeypatch, SyncPolicy)
        run_slots = [args for _, method, args in posts if method == "run_slot"]
        assert run_slots and not any(args[6] or args[7] for args in run_slots)
        # Released users arrive through explicit opens carrying their download.
        assert any(
            len(args[1]) and args[2] is not None
            for _, method, args in posts
            if method == "open_slot" and args[0] > 0
        )
        assert self._zero_commits(posts) == []


class TestPendingDownload:
    """A re-armed finisher's base is a placeholder until ``run_slot`` pins it."""

    def test_snapshot_refused_until_the_download_lands(self):
        config = SimulationConfig(
            num_users=4,
            total_slots=200,
            app_arrival_prob=0.0,
            seed=0,
            num_train_samples=80,
            num_test_samples=40,
            hidden_dims=(8,),
        )
        coordinator = SimulationEngine(config, ImmediatePolicy())
        shard = FleetShard.build(
            config, 1, 4, coordinator.arrivals.slice_users(1, 4), None
        )
        params = coordinator.server.global_params()
        opened = shard.open_slot(0, [1, 2, 3], 0, params)
        scheduled = opened.payload.users.tolist()
        assert scheduled == [1, 2, 3]
        slot, reply = 0, None
        while True:  # run slots, re-arming, until the first finisher
            reply = shard.run_slot(slot, scheduled, [], False, False, False, True)
            scheduled = []
            if reply.uploads.users:
                break
            assert reply.spec_open is None  # nothing to re-arm, no ready user
            slot += 1
            shard.open_slot(slot, [], None, None)
        rearmed = reply.uploads.users
        assert reply.spec_open is not None
        assert reply.spec_open.payload.users.tolist() == rearmed  # ready next slot
        for method, args in (
            ("checkpoint_state", ()),
            ("quiet_try", (slot + 1, False, False)),
            ("finalize", ()),
            ("run_slot", (slot + 1, [], [], False, False)),
        ):
            with pytest.raises(RuntimeError, match="re-armed users"):
                getattr(shard, method)(*args)
        download = (7, params.copy())
        shard.run_slot(slot + 1, [], rearmed, False, False, False, True, download)
        for user in rearmed:
            assert shard.fleet.base_version[user - 1] == 7
            assert shard.fleet.base_params[user - 1] is download[1]
        assert shard.checkpoint_state()["fleet"]["base_version"].tolist().count(7) == len(rearmed)


class TestSyncQuorumAcrossShards:
    def test_sync_round_spans_shards(self):
        # One phone pre-drains inside every engine (battery capacity sized
        # so the fleet gates out mid-run); rounds must still complete over
        # the participating quorum with the buffer and stalled set global.
        config = SimulationConfig(
            num_users=8,
            total_slots=900,
            app_arrival_prob=0.01,
            seed=0,
            num_train_samples=240,
            num_test_samples=100,
            eval_interval_slots=300,
            device_mix=PHONE_MIX,
            battery_capacity_j=2000.0,
            battery_charge_rate_w=0.0,
            min_battery_soc=0.2,
        )
        single = _assert_shard_invariant(config, SyncPolicy, shard_counts=(2, 4))
        assert single.num_updates > 0
        # The drained fleet really gated out (otherwise the quorum logic
        # never fired and the test proves nothing).
        assert any(soc < 0.2 + 1e-9 for soc in single.final_battery_soc)


class TestTraceLevels:
    def _run(self, trace_level, shards=1):
        config = SimulationConfig(
            num_users=8,
            total_slots=250,
            app_arrival_prob=0.01,
            seed=2,
            num_train_samples=240,
            num_test_samples=100,
            eval_interval_slots=125,
        )
        policy = OnlinePolicy(v=4000.0)
        if shards > 1:
            return ShardedEngine(
                config, policy, shards=shards, trace_level=trace_level
            ).run()
        return SimulationEngine(config, policy, trace_level=trace_level).run()

    def test_summary_keeps_headline_numbers_bitwise(self):
        full = self._run("full")
        summary = self._run("summary")
        assert summary.total_energy_j() == full.total_energy_j()
        assert summary.num_updates == full.num_updates
        assert summary.accuracy.accuracies() == full.accuracy.accuracies()
        assert dict(summary.trace.decisions) == dict(full.trace.decisions)
        # Streamed queue means agree with the history-backed values up to
        # the reduction (left-to-right fold vs np.mean's pairwise sum).
        assert summary.mean_queue_length() == pytest.approx(full.mean_queue_length())
        assert summary.final_virtual_queue_length() == pytest.approx(
            full.final_virtual_queue_length()
        )

    def test_summary_is_memory_bounded(self):
        summary = self._run("summary")
        assert summary.trace.slot_samples == []
        assert summary.trace.per_user_gaps == {}
        assert summary.queue_history == []
        assert summary.virtual_queue_history == []
        assert summary.queue_stats is not None
        assert summary.trace.update_samples  # per-update samples survive

    def test_off_drops_update_samples_too(self):
        off = self._run("off")
        assert off.trace.update_samples == []
        assert off.num_updates > 0  # the counter survives on the server

    def test_summary_matches_under_sharding(self):
        single = self._run("summary")
        sharded = self._run("summary", shards=2)
        assert sharded.total_energy_j() == single.total_energy_j()
        assert sharded.num_updates == single.num_updates
        assert sharded.mean_queue_length() == single.mean_queue_length()

    def test_engine_rejects_unknown_level(self):
        config = SimulationConfig(num_users=4, total_slots=10)
        with pytest.raises(ValueError, match="trace_level"):
            SimulationEngine(config, ImmediatePolicy(), trace_level="everything")


class TestScheduleSlicing:
    def test_slice_users_reindexes(self):
        specs = np.random.default_rng(0)
        from repro.device.models import build_device_fleet

        schedule = ArrivalSchedule.generate(
            num_users=6, total_slots=800, slot_seconds=1.0,
            process=BernoulliArrivalProcess(0.02),
            device_specs=build_device_fleet(6, np.random.default_rng(0)),
            rng=np.random.default_rng(1),
        )
        sliced = schedule.slice_users(2, 5)
        for local, user in enumerate(range(2, 5)):
            assert [a.arrival_slot for a in sliced.arrivals_for(local)] == [
                a.arrival_slot for a in schedule.arrivals_for(user)
            ]
        assert total_arrivals(sliced) == sum(
            len(schedule.arrivals_for(user)) for user in range(2, 5)
        )

    def test_slice_users_validates_range(self):
        schedule = ArrivalSchedule({0: []})
        with pytest.raises(ValueError):
            schedule.slice_users(3, 3)

"""The schedule path in slot blocks, bit for bit.

Everything that happens to a slot's schedulers between the speculative batch
and ``run_slot`` is held to the per-user form it replaced: the same-slot
coupling rule (``SameSlotLags``) to a server that registers one job at a
time, ``OnlinePolicy.decide_all``'s repair pass and the per-user decisions
to the walk frozen in ``tests/oracle.py``, the coordinator's final lags to the
per-user registration walk, the in-flight blocks to blocks of one in
order, the ``start_training`` block to its all-or-nothing contract, and the
whole of it to the per-user reference loop and to a checkpoint the parent
commit wrote.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import (
    frozen_generic_decide_all,
    frozen_online_decide_all,
    frozen_schedule_walk,
    make_engine,
    pool_batch,
    rowwise_decide_all,
    run_digest,
)
from reference_loop import GapTracker, estimate_lag
from repro.columns import ordered_sum
from repro.core.granularity import DecisionIntervalPolicy
from repro.core.offline import OfflinePolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import (
    ImmediatePolicy,
    ObservationBatch,
    SameSlotLags,
    SlotContext,
    scheduled_lags,
)
from repro.core.staleness import gradient_gap
from repro.fl.server import ParameterServer
from repro.service.checkpoint import CHECKPOINT_FORMAT_VERSION, CheckpointStore
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from test_fleet_plane import build_fleet

# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------

#: Non-unit slot lengths make ``(slot + d_j) * dt <= slot * dt + d_i * dt``
#: a float question (0.1 and 1/3 round differently on the two sides).
_SLOT_SECONDS = st.sampled_from([1.0, 0.1, 0.3, 1.0 / 3.0, 2.5])
_DURATIONS = st.sampled_from([1, 2, 3, 5, 7, 11])
_BETAS = st.sampled_from([0.0, 0.5, 0.9])


def make_batch(slot, slot_seconds, durations, lags, norms, betas, app, gaps) -> ObservationBatch:
    return pool_batch(
        slot, np.arange(3, 3 + 2 * len(durations), 2), app, slot_seconds,
        training_duration_slots=durations, estimated_lag=lags, momentum_norm=norms,
        momentum_coeff=betas, current_gap=gaps,
    )


@st.composite
def pools(draw):
    n = draw(st.integers(0, 10))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    betas = column(_BETAS) if draw(st.booleans()) else [draw(_BETAS)] * n
    return make_batch(
        slot=draw(st.integers(0, 400)),
        slot_seconds=draw(_SLOT_SECONDS),
        durations=column(_DURATIONS),
        lags=column(st.integers(0, 4)),
        norms=column(st.floats(0.0, 3.0)),
        betas=betas,
        app=column(st.booleans()),
        gaps=column(st.floats(0.0, 0.05)),
    )


def online_policy(v, q_length, h_length) -> OnlinePolicy:
    """An online policy with the backlogs ``Q(t)`` / ``H(t)`` set by hand."""
    policy = OnlinePolicy(v=v)
    policy.task_queue.reset(q_length)
    policy.virtual_queue.reset(h_length)
    return policy


#: ``V = 0`` leaves the staleness term alone against ``Q(t)``, so the lag
#: estimate decides and the repair flips often; 4000 is the paper's knob.
_BACKLOGS = st.tuples(
    st.sampled_from([0.0, 1.0, 4000.0]),
    st.sampled_from([0, 1, 3]),
    st.sampled_from([0.0, 1.0, 50.0, 1e4]),
)

# ---------------------------------------------------------------------------
# (a) The coupling rule
# ---------------------------------------------------------------------------


class TestSameSlotLags:
    @settings(max_examples=200, deadline=None)
    @given(
        batch=pools(),
        flags=st.lists(st.booleans(), min_size=10, max_size=10),
        running=st.lists(st.tuples(st.integers(100, 140), st.integers(0, 14)), max_size=12),
    )
    def test_equals_a_server_that_registers_one_job_at_a_time(self, batch, flags, running):
        """The rule's definition: what the per-user loop's server answers."""
        slot, dt = batch.slot, batch.slot_seconds
        now_s = slot * dt
        server = ParameterServer(np.zeros(3))
        for user, ahead in running:  # jobs already in flight at slot start
            server.register_inflight_block((user,), ((slot + ahead) * dt,))
        users = batch.user_ids.tolist()
        durations = batch.training_duration_slots.tolist()
        batch.estimated_lag = server.estimate_lags(
            batch.user_ids, now_s, batch.training_duration_slots * dt
        )
        coupling = SameSlotLags(batch)
        for position, (user, duration) in enumerate(zip(users, durations)):
            assert coupling.lag(position) == estimate_lag(server, user, now_s, duration * dt)
            if flags[position]:
                server.register_inflight_block((user,), ((slot + duration) * dt,))
                coupling.record(position)

    def test_a_shorter_job_raises_a_longer_one_and_not_the_reverse(self):
        batch = make_batch(
            slot=5, slot_seconds=1.0, durations=[9, 3, 7, 3, 7], lags=[4, 0, 0, 0, 0],
            norms=[1.0] * 5, betas=[0.9] * 5, app=[False] * 5, gaps=[0.0] * 5,
        )
        coupling = SameSlotLags(batch, np.array([1, 2, 3, 4]))  # positions count along these
        coupling.record(0)  # finishes at 8: inside [5, 12], inside [5, 8]
        assert [coupling.lag(p) for p in range(4)] == [1, 1, 1, 1]
        coupling.record(1)  # finishes at 12: outside [5, 8]
        assert [coupling.lag(p) for p in range(4)] == [1, 2, 1, 2]

    @settings(max_examples=200, deadline=None)
    @given(batch=pools(), flags=st.lists(st.booleans(), min_size=10, max_size=10))
    def test_final_lags_equal_the_per_user_registration_walk(self, batch, flags):
        schedule = np.array(flags[: len(batch)], dtype=bool)
        chosen = np.flatnonzero(schedule)
        walked = frozen_schedule_walk(batch, schedule)
        lags = scheduled_lags(batch, chosen)
        assert all(type(lag) is int for lag in lags)
        assert lags == [lag for _, _, lag, _ in walked]
        # What the coordinator writes and registers from them.
        terms = zip(
            batch.momentum_norm[chosen].tolist(),
            batch.learning_rate[chosen].tolist(),
            batch.momentum_coeff[chosen].tolist(),
            lags,
        )
        assert [gradient_gap(*term) for term in terms] == [gap for _, _, _, gap in walked]
        durations = batch.training_duration_slots[chosen].tolist()
        assert [(batch.slot + d) * batch.slot_seconds for d in durations] == [
            finish for _, finish, _, _ in walked
        ]


# ---------------------------------------------------------------------------
# (b) The repair pass and the per-user decisions
# ---------------------------------------------------------------------------


class TestRepairPass:
    @settings(max_examples=300, deadline=None)
    @given(batch=pools(), backlogs=_BACKLOGS, distributed=st.booleans())
    def test_block_form_equals_the_frozen_walk(self, batch, backlogs, distributed):
        block, frozen, per_user, frozen_per_user = (
            online_policy(*backlogs) for _ in range(4)
        )
        for policy in (block, frozen, per_user, frozen_per_user):
            policy.distributed = distributed
        schedule = block.decide_all(batch)
        expected, _ = frozen_online_decide_all(frozen, batch)
        assert schedule.dtype == bool and schedule.tolist() == expected.tolist()
        # ... which is the per-user loop's answer, through the live rule on
        # batches of one and through the frozen scalar fallback.
        assert rowwise_decide_all(per_user, batch).tolist() == expected.tolist()
        assert frozen_generic_decide_all(frozen_per_user, batch).tolist() == expected.tolist()
        for policy in (frozen, per_user, frozen_per_user):
            assert block.decision_log == policy.decision_log
            assert block.decision_cost_evaluations() == policy.decision_cost_evaluations()
            assert block.messages_to_server == policy.messages_to_server
            assert block.messages_to_users == policy.messages_to_users

    def test_random_pools_do_exercise_the_flip(self):
        """The strategy above is not vacuous: seeded pools of its shape flip."""
        rng = np.random.default_rng(0)
        flips = kept = 0
        for _ in range(300):
            n = int(rng.integers(2, 11))
            batch = make_batch(
                slot=int(rng.integers(0, 400)),
                slot_seconds=float(rng.choice([1.0, 0.1, 0.3, 2.5])),
                durations=rng.choice([1, 2, 3, 5, 7, 11], size=n),
                lags=rng.integers(0, 5, size=n),
                norms=rng.uniform(0.0, 3.0, size=n),
                betas=rng.choice([0.0, 0.5, 0.9], size=n),
                app=rng.random(n) < 0.5,
                gaps=rng.uniform(0.0, 0.05, size=n),
            )
            backlogs = (0.0, int(rng.integers(0, 2)), float(rng.choice([1.0, 50.0])))
            schedule = online_policy(*backlogs).decide_all(batch)
            expected, flipped = frozen_online_decide_all(online_policy(*backlogs), batch)
            assert schedule.tolist() == expected.tolist()
            flips += len(flipped)
            kept += int(expected.sum())
        assert flips > 50 and kept > 50

    #: ``V = 0``, ``Q = 0``, ``H = 1``: schedule iff ``gap(lag) <= g_i + eps``
    #: with ``gap = 0.01 * factor(lag) * ||v||``, ``factor = 0, 1, 1.9, ...``
    #: and ``g_i + eps = 0.01``.
    def _decide(self, norms, durations=None):
        n = len(norms)
        batch = make_batch(
            slot=0, slot_seconds=1.0, durations=durations or [7] * n, lags=[0] * n,
            norms=norms, betas=[0.9] * n, app=[False] * n, gaps=[0.0] * n,
        )
        policy = online_policy(0.0, 0, 1.0)
        schedule = policy.decide_all(batch)
        expected, flipped = frozen_online_decide_all(online_policy(0.0, 0, 1.0), batch)
        assert schedule.tolist() == expected.tolist()
        return schedule.tolist(), flipped

    def test_the_repair_flips_a_speculative_scheduler_to_idle(self):
        # Speculatively everyone sees lag 0, gap 0: all schedule.  User 1
        # then sees user 0's job: lag 1, gap 0.02 > 0.01 — idle.
        schedule, flipped = self._decide([2.0, 2.0])
        assert schedule == [True, False] and flipped == [1]

    def test_an_earlier_flip_lowers_a_later_lag(self):
        # User 2 stays under lag 1 (gap 0.007) and would flip under lag 2
        # (gap 0.0133): it must not count the flipped user 1.
        schedule, flipped = self._decide([2.0, 2.0, 0.7])
        assert schedule == [True, False, True] and flipped == [1]
        # With user 1 scheduling too (gap 0.005 under lag 1), user 2 sees
        # two jobs and flips.
        schedule, flipped = self._decide([2.0, 0.5, 0.7])
        assert schedule == [True, True, False] and flipped == [2]

    def test_a_longer_job_ahead_does_not_flip_a_shorter_one(self):
        schedule, flipped = self._decide([2.0, 2.0], durations=[7, 3])
        assert schedule == [True, True] and flipped == []
        schedule, flipped = self._decide([2.0, 2.0], durations=[3, 7])
        assert schedule == [True, False] and flipped == [1]

    def test_a_lone_scheduler_and_an_empty_pool_skip_the_pass(self, monkeypatch):
        calls = []
        original = OnlinePolicy._repair
        monkeypatch.setattr(
            OnlinePolicy, "_repair", staticmethod(lambda *a: (calls.append(1), original(*a)))
        )
        assert self._decide([2.0]) == ([True], [])
        assert self._decide([]) == ([], [])
        assert calls == []
        self._decide([2.0, 2.0])
        assert calls == [1]


class _StaggeredArrivals:
    """Arrival oracle: user ``u``'s app arrives ``u % 4`` slots into a window."""

    def next_arrival(self, user_id, start_slot, end_slot):
        slot = start_slot + user_id % 4
        return (slot, "news") if slot < end_slot else None


def interval_inner(kind, backlogs):
    """A fresh inner policy for the interval wrapper."""
    if kind == "online":
        return online_policy(*backlogs)
    if kind == "offline":
        policy = OfflinePolicy(staleness_bound=0.05, window_slots=3)
        policy.attach_oracle(_StaggeredArrivals())
        return policy
    return ImmediatePolicy()


class TestIntervalWrapper:
    @settings(max_examples=250, deadline=None)
    @given(
        # (pool, waiting slots, slots since the last decision, G(t))
        slots=st.lists(st.tuples(
            pools(), st.lists(st.integers(0, 11), min_size=10, max_size=10),
            st.integers(1, 3), st.floats(0.0, 3.0),
        ), min_size=1, max_size=4),
        kind=st.sampled_from(["online", "offline", "immediate"]),
        interval=st.sampled_from([1, 2, 5]),
        align=st.booleans(),
        backlogs=_BACKLOGS,
    )
    def test_equals_the_frozen_per_user_fallback(self, slots, kind, interval, align, backlogs):
        """The wrapper's array rule (the inner ``decide_all`` on the rows at a
        decision point) is the per-entry fallback it used to run; the pools
        flip online schedulers (``test_random_pools_do_exercise_the_flip``)."""
        live, frozen = (
            DecisionIntervalPolicy(interval_inner(kind, backlogs), interval, align)
            for _ in range(2)
        )
        slot = 0
        for batch, waiting, step, gap_sum in slots:
            slot += step
            batch = replace(
                batch, slot=slot, waiting_slots=np.array(waiting[: len(batch)], dtype=np.int64)
            )
            context = SlotContext(
                slot=slot, slot_seconds=batch.slot_seconds, num_arrivals=1,
                num_ready=len(batch), num_training=0, num_users=24,
            )
            for policy in (live, frozen):
                policy.begin_slot(context)
            schedule = live.decide_all(batch)
            expected = frozen_generic_decide_all(frozen, batch)
            assert schedule.dtype == bool and schedule.tolist() == expected.tolist()
            live.end_slot(context, int(expected.sum()), gap_sum)
            frozen.end_slot(context, int(expected.sum()), gap_sum)
        assert live.skipped_decisions == frozen.skipped_decisions
        assert live.decision_cost_evaluations() == frozen.decision_cost_evaluations()
        if kind == "online":
            assert live.inner.decision_log == frozen.inner.decision_log
            assert live.inner.messages_to_server == frozen.inner.messages_to_server
        if kind == "offline":
            assert live.inner.solutions == frozen.inner.solutions
            pending = [np.flatnonzero(p.inner._pending).tolist() for p in (live, frozen)]
            assert pending[0] == pending[1]


# ---------------------------------------------------------------------------
# (c) In-flight blocks against blocks of one
# ---------------------------------------------------------------------------

_USERS = st.integers(min_value=0, max_value=40)  # past the initial capacity of 16
_TIMES = st.integers(min_value=0, max_value=12).map(float)
_JOBS = st.lists(st.tuples(_USERS, _TIMES), max_size=24)  # duplicate ids included
_BLOCK_OPS = st.one_of(
    st.tuples(st.just("register"), _JOBS),
    st.tuples(st.just("unregister"), st.lists(_USERS, max_size=24)),  # unknown ids included
    st.tuples(st.just("pickle")),
)


def assert_index(server: ParameterServer, model: dict) -> None:
    """The index is exactly what ``model`` (user -> finish) implies."""
    count = len(model)
    assert server._inflight == model
    assert all(type(user) is int and type(finish) is float for user, finish in model.items())
    assert server._finishes[:count].tolist() == sorted(model.values())
    assert np.flatnonzero(server._inflight_mask).tolist() == sorted(model)
    assert not server._inflight_mask[-1]  # the sentinel


class TestInflightBlocks:
    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(_BLOCK_OPS, min_size=1, max_size=20), now_s=_TIMES)
    def test_blocks_equal_the_scalar_sequence(self, steps, now_s):
        block, scalar = ParameterServer(np.zeros(3)), ParameterServer(np.zeros(3))
        model = {}
        for op in steps:
            if op[0] == "register":
                block.register_inflight_block([u for u, _ in op[1]], [f for _, f in op[1]])
                for user, finish in op[1]:  # a repeated or in-flight id: replace
                    scalar.register_inflight_block((user,), (finish,))
                    model[user] = finish
            elif op[0] == "unregister":
                block.unregister_inflight_block(op[1])
                for user in op[1]:
                    scalar.unregister_inflight(user)
                    model.pop(user, None)
            else:
                block = pickle.loads(pickle.dumps(block))
            assert_index(block, model)
            assert_index(scalar, model)
            users = np.arange(42)
            durations = np.full(42, 5.0)
            expected = [
                sum(1 for other, finish in model.items()
                    if other != user and now_s <= finish <= now_s + 5.0)
                for user in range(42)
            ]
            assert block.estimate_lags(users, now_s, durations).tolist() == expected
            assert scalar.estimate_lags(users, now_s, durations).tolist() == expected

    def test_reregistering_an_inflight_user_replaces_its_job(self):
        server = ParameterServer(np.zeros(3))
        server.register_inflight_block([1, 2, 3], [10.0, 20.0, 30.0])
        server.register_inflight_block([2, 4], [5.0, 20.0])
        assert_index(server, {1: 10.0, 2: 5.0, 3: 30.0, 4: 20.0})

    def test_a_user_named_twice_keeps_its_last_finish(self):
        server = ParameterServer(np.zeros(3))
        server.register_inflight_block([7, 8, 7], [30.0, 30.0, 10.0])
        assert_index(server, {7: 10.0, 8: 30.0})
        server.unregister_inflight_block([8, 8, 99])
        assert_index(server, {7: 10.0})

    def test_a_negative_id_leaves_the_index_untouched(self):
        server = ParameterServer(np.zeros(3))
        server.register_inflight_block([1, 2], [10.0, 20.0])
        with pytest.raises(ValueError, match="user_id"):
            server.register_inflight_block([1, 5, -1], [50.0, 60.0, 70.0])
        assert_index(server, {1: 10.0, 2: 20.0})
        server.unregister_inflight_block([-1])  # unknown: skipped
        assert_index(server, {1: 10.0, 2: 20.0})

    def test_growth_past_capacity_in_one_block(self):
        server = ParameterServer(np.zeros(3))
        capacity, mask_size = server._finishes.size, server._inflight_mask.size
        users = list(range(0, 10 * capacity, 2))
        finishes = [float(user % 7) for user in users]
        server.register_inflight_block(users, finishes)
        assert server._finishes.size > capacity and server._inflight_mask.size > mask_size
        assert_index(server, dict(zip(users, finishes)))
        server.unregister_inflight_block(users[::3])
        assert_index(server, {u: f for u, f in zip(users, finishes) if u not in users[::3]})

    def test_equal_finishes_leave_as_distinct_entries(self):
        server = ParameterServer(np.zeros(3))
        server.register_inflight_block([1, 2, 3, 4, 5], [30.0, 30.0, 30.0, 10.0, 40.0])
        server.unregister_inflight_block([3, 1])
        assert_index(server, {2: 30.0, 4: 10.0, 5: 40.0})

    def test_empty_blocks_are_noops(self):
        server = ParameterServer(np.zeros(3))
        server.register_inflight_block([], [])
        server.unregister_inflight_block([])
        assert_index(server, {})


# ---------------------------------------------------------------------------
# (d) The start_training block
# ---------------------------------------------------------------------------


class TestStartTrainingBlock:
    def test_block_equals_one_user_at_a_time(self):
        block, scalar = build_fleet(), build_fleet()
        for fleet in (block, scalar):
            fleet.begin_slot_apps(0)
        block.start_training(np.array([0, 2, 5]))
        for user in (0, 2, 5):
            scalar.start_training(np.array([user]))
        for fleet in (block, scalar):
            fleet.advance(np.zeros(fleet.num_users, dtype=bool))
        for name in ("training_active", "remaining_slots", "ready", "_progress", "_energy_j"):
            assert getattr(block, name).tobytes() == getattr(scalar, name).tobytes(), name
        assert block._num_training == scalar._num_training == 3
        assert block.remaining_slots[[0, 2, 5]].tolist() == [
            float(d) - 1.0 for d in block.duration_slots[[0, 2, 5]]
        ]

    def test_an_already_training_user_raises_with_nothing_changed(self):
        fleet = build_fleet()
        fleet.begin_slot_apps(0)
        fleet.start_training(np.array([2]))
        before = {
            name: getattr(fleet, name).copy()
            for name in ("training_active", "remaining_slots", "ready")
        }
        started, count = list(fleet._started), fleet._num_training
        with pytest.raises(RuntimeError, match=r"users \[2\]"):
            fleet.start_training(np.array([1, 2, 4]))
        for name, column in before.items():
            assert getattr(fleet, name).tobytes() == column.tobytes(), name
        assert fleet._started == started and fleet._num_training == count


# ---------------------------------------------------------------------------
# (e) The one fold
# ---------------------------------------------------------------------------


class TestOrderedSum:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e300, max_value=1e300, allow_nan=False), max_size=40
        )
    )
    def test_equals_the_left_to_right_python_fold(self, values):
        total = 0.0
        for value in values:  # what the builtin ``sum`` did before CPython 3.12
            total += value
        got = ordered_sum(np.array(values, dtype=np.float64))
        assert type(got) is float and got.hex() == total.hex()

    def test_random_arrays_of_fleet_size(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            values = rng.uniform(0.0, 5.0, size=int(rng.integers(1, 2000)))
            total = 0.0
            for value in values.tolist():
                total += value
            assert ordered_sum(values) == total

    def test_negative_zero_totals_read_as_zero(self):
        assert ordered_sum(np.array([-0.0])).hex() == (0.0).hex()
        assert ordered_sum(np.array([-0.0, -0.0])).hex() == (0.0).hex()
        assert ordered_sum(np.empty(0)).hex() == (0.0).hex()

    def test_gap_tracker_total_folds_in_insertion_order(self):
        tracker = GapTracker(epsilon=0.1)
        for user in (3, 1, 2):
            tracker.on_scheduled(user, 0.1 * (user + 1) + 1e-17)
        assert tracker.total_gap() == ((0.4 + 1e-17) + (0.2 + 1e-17)) + (0.3 + 1e-17)
        assert tracker.total_gap([1, 9]) == (0.2 + 1e-17) + 0.0
        assert GapTracker().total_gap() == 0.0


# ---------------------------------------------------------------------------
# (f) Engine level: the reference loop, and a checkpoint the parent wrote
# ---------------------------------------------------------------------------


def _crowded_config(**overrides) -> SimulationConfig:
    base = dict(
        num_users=14,
        total_slots=260,
        app_arrival_prob=0.02,
        seed=11,
        num_train_samples=280,
        num_test_samples=80,
        hidden_dims=(8,),
        eval_interval_slots=130,
        trace_interval_slots=10,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestWholeFleetSchedulesInSlotZero:
    """Slot 0 is the widest same-slot coupling a run has: every user."""

    @pytest.mark.parametrize(
        "make_policy",
        [
            pytest.param(ImmediatePolicy, id="immediate"),
            # V = 0: Q(0) = H(0) = 0 ties the two costs, and a tie schedules.
            pytest.param(lambda: OnlinePolicy(v=0.0, staleness_bound=0.05), id="online-v0"),
        ],
    )
    @pytest.mark.parametrize("slot_seconds, total_slots", [(1.0, 520), (0.3, 2000)])
    def test_fleet_equals_the_reference_loop(self, make_policy, slot_seconds, total_slots):
        config = _crowded_config(slot_seconds=slot_seconds, total_slots=total_slots)
        results = {}
        for mode in ("loop", "fleet"):
            policy = make_policy()
            results[mode] = make_engine(mode, config, policy).run()
            if isinstance(policy, OnlinePolicy):
                slot_zero = [flag for slot, _, flag in policy._decision_log.rows() if slot == 0]
                assert len(slot_zero) == config.num_users and all(slot_zero)
        assert results["fleet"].num_updates > config.num_users
        assert run_digest(results["fleet"]) == run_digest(results["loop"])


#: A v7 store the parent commit (PR 21) wrote at slot 150 of a 360-slot run,
#: with jobs in flight, and the digest its own uninterrupted run ended on:
#: ``python3 tests/data/make_ckpt_fixture.py`` from a checkout of that commit.
_FIXTURE = Path(__file__).parent / "data" / "ckpt_v7_pr21"


class TestParentCheckpoint:
    def test_a_store_written_by_the_parent_resumes_to_its_digest(self):
        expected = json.loads((_FIXTURE / "expected.json").read_text())
        assert CHECKPOINT_FORMAT_VERSION == expected["format_version"] == 7
        checkpoint = CheckpointStore(_FIXTURE / "store").load()
        assert checkpoint.slot == expected["slot"]
        engine = SimulationEngine.restore(checkpoint)
        assert engine.server.inflight_count() == expected["inflight"] > 0
        assert run_digest(engine.run()) == expected["digest"]

    @pytest.mark.parametrize("where", ["meta", "slice", "slice-trained"])
    def test_a_store_holding_train_ahead_state_is_refused(self, tmp_path, where):
        """A v7 store written with batched training holds rounds trained
        ahead of their completion slot, which the serial round cannot
        resume; the fixture store with the flag set, or with one pending or
        one trained-ahead round in its slice, must fail to load with the
        reason."""
        root = tmp_path / "store"
        shutil.copytree(_FIXTURE / "store", root)
        snapshot = root / "snapshot-00000000"
        meta = json.loads((snapshot / "meta.json").read_text())
        if where == "meta":
            meta["batched_training"] = True
        else:
            piece = pickle.loads((snapshot / "users_0_8.pkl").read_bytes())
            if where == "slice":
                piece["pending"] = {3: (np.zeros(4), 2)}
            else:
                piece["trained"] = {3: np.zeros(4)}
            data = pickle.dumps(piece)
            (snapshot / "users_0_8.pkl").write_bytes(data)
            meta["checksums"]["users_0_8.pkl"] = hashlib.sha256(data).hexdigest()
        meta_bytes = json.dumps(meta).encode()
        (snapshot / "meta.json").write_bytes(meta_bytes)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["retained"][0]["meta_sha256"] = hashlib.sha256(meta_bytes).hexdigest()
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="train-ahead state"):
            CheckpointStore(root).load()

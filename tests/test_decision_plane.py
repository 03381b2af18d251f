"""The per-slot decision plane: incremental and array-native, bit for bit.

Every shortcut the coordinator takes per slot is held to the per-user form
it replaces: the in-flight index behind ``estimate_lags`` to the reference
loop's dict-scan ``estimate_lag`` and a brute-force count, the Eq. (4) factor table to the
scalar ``momentum_lag_factor``, ``OfflinePolicy.decide_all`` to the frozen
per-user plan lookup on a twin policy, the array decision log to the tuple
list, and the single-shard slot loop to one ``open_slot`` per executed slot.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import batch_row, frozen_evaluate, frozen_generic_decide_all
from oracle import pool_batch as make_batch
from reference_loop import estimate_lag
from repro.core.granularity import DecisionIntervalPolicy
from repro.core.offline import OfflinePolicy
from repro.core.online import OnlineController, OnlinePolicy
from repro.core.policies import (
    Decision,
    SchedulingPolicy,
    SlotContext,
)
from repro.core.staleness import momentum_lag_factor, momentum_lag_factor_batch
from repro.fl.client import LocalUpdate
from repro.fl.server import ParameterServer
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.shard import (
    FleetShard,
    ProcessShardHandle,
    ShardedEngine,
    SlotExecReply,
)


# ---------------------------------------------------------------------------
# (a) The in-flight index behind estimate_lags
# ---------------------------------------------------------------------------

#: Small grids, so equal finish times, finishes exactly on ``now_s`` and
#: finishes exactly on a window's horizon all occur constantly.
_USERS = st.integers(min_value=0, max_value=11)
_TIMES = st.integers(min_value=0, max_value=12).map(float)
_OPS = st.one_of(
    st.tuples(st.just("register"), _USERS, _TIMES),
    st.tuples(st.just("unregister"), _USERS),  # unknown users included
    st.tuples(st.just("async_update"), _USERS),
    st.tuples(st.just("pickle")),
)
_QUERIES = st.tuples(
    _TIMES,
    st.lists(
        st.tuples(_USERS, st.integers(min_value=1, max_value=8).map(float)),
        min_size=1,
        max_size=8,
    ),
)


def _brute_force_lag(inflight, user, now_s, duration_s):
    return sum(
        1
        for other, finish in inflight.items()
        if other != user and now_s <= finish <= now_s + duration_s
    )


class TestInflightIndex:
    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(st.tuples(_OPS, _QUERIES), min_size=1, max_size=40))
    def test_random_interleavings_match_scalar_and_brute_force(self, steps):
        server = ParameterServer(np.zeros(3))
        model = {}  # user -> finish: what the in-flight set must be
        for op, (now_s, ready) in steps:
            if op[0] == "register":  # a known user re-registers: replace
                server.register_inflight_block((op[1],), (op[2],))
                model[op[1]] = op[2]
            elif op[0] == "unregister":  # what buffer_sync_upload does
                server.unregister_inflight(op[1])
                model.pop(op[1], None)
            elif op[0] == "async_update":
                server.async_update(
                    LocalUpdate(
                        user_id=op[1], delta=np.zeros(3), base_version=server.version,
                        num_samples=1, train_loss=0.0, momentum_norm=0.0, num_batches=1,
                    ),
                    time_s=now_s,
                )
                model.pop(op[1], None)
            else:
                server = pickle.loads(pickle.dumps(server))
            assert server.inflight_count() == len(model)
            # Ready users may repeat and may themselves be in flight.
            users = np.array([user for user, _ in ready], dtype=np.int64)
            durations = np.array([duration for _, duration in ready])
            expected = [
                _brute_force_lag(model, user, now_s, duration) for user, duration in ready
            ]
            for answering in (server, pickle.loads(pickle.dumps(server))):
                lags = answering.estimate_lags(users, now_s, durations)
                assert lags.dtype == np.int64
                assert lags.tolist() == expected
                assert [
                    estimate_lag(answering, user, now_s, duration)
                    for user, duration in ready
                ] == expected

    def test_reregistration_replaces_the_old_finish(self):
        server = ParameterServer(np.zeros(3))
        server.register_inflight_block((1,), (10.0,))
        server.register_inflight_block((1,), (50.0,))
        assert server.inflight_count() == 1
        # The stale finish at 10 s must not be counted for anyone.
        assert server.estimate_lags(np.array([0]), 0.0, np.array([20.0])).tolist() == [0]
        assert server.estimate_lags(np.array([0]), 40.0, np.array([20.0])).tolist() == [1]

    def test_equal_finishes_stay_distinct_entries(self):
        server = ParameterServer(np.zeros(3))
        for user in (1, 2, 3):
            server.register_inflight_block((user,), (30.0,))
        server.unregister_inflight(2)
        assert server.estimate_lags(np.array([0, 1]), 0.0, np.array([30.0, 30.0])).tolist() == [2, 1]

    def test_unregistering_an_unknown_user_is_a_noop(self):
        server = ParameterServer(np.zeros(3))
        server.register_inflight_block((4,), (5.0,))
        server.unregister_inflight(99)
        server.unregister_inflight(4)
        server.unregister_inflight(4)
        assert server.inflight_count() == 0
        assert server.estimate_lags(np.array([0]), 0.0, np.array([10.0])).tolist() == [0]

    def test_index_is_not_pickled(self):
        server = ParameterServer(np.zeros(3))
        for user in range(50):
            server.register_inflight_block((user,), (float(user),))
        state = server.__getstate__()
        assert {"_finishes", "_inflight_mask"}.isdisjoint(state)
        assert state["_inflight"] == {user: float(user) for user in range(50)}

    def test_input_validation_is_kept(self):
        server = ParameterServer(np.zeros(3))
        with pytest.raises(ValueError, match="duration_s"):
            server.estimate_lags(np.array([0]), 0.0, np.array([0.0]))
        with pytest.raises(ValueError, match="duration_s"):
            estimate_lag(server, 0, 0.0, -1.0)
        with pytest.raises(ValueError, match="user_id"):
            server.register_inflight_block((-1,), (5.0,))


# ---------------------------------------------------------------------------
# (b) OfflinePolicy.decide_all against the frozen per-user lookup on a twin
# ---------------------------------------------------------------------------


class _ListOracle:
    """Arrival oracle over explicit ``{user: [(slot, app), ...]}`` lists."""

    def __init__(self, arrivals):
        self._arrivals = arrivals

    def next_arrival(self, user_id, start_slot, end_slot):
        for slot, name in self._arrivals.get(user_id, ()):
            if start_slot <= slot < end_slot:
                return slot, name
        return None


#: App launches (each runs ``_APP_SLOTS``); user 5 never launches one.
_APP_SLOTS = 6
_LAUNCHES = {
    0: [(8, "zoom"), (47, "news"), (88, "zoom")],
    1: [(15, "news"), (33, "zoom"), (71, "news"), (104, "zoom")],
    2: [(52, "zoom"), (95, "news")],
    3: [(5, "news"), (26, "news"), (64, "zoom"), (110, "news")],
    4: [(12, "zoom"), (58, "zoom")],
}
_DURATIONS = np.array([7, 9, 7, 11, 9, 7], dtype=np.int64)
#: User 2 is battery-gated out of the ready pool over these slots.
_GATED = range(24, 45)
_WINDOW = 20
_TOTAL_SLOTS = 120


def _drive_twins(array_policy, per_user_policy):
    """Run both policies in lock step over a multi-window pool history.

    The pool dynamics follow the (asserted equal) decisions: a scheduled
    user trains for its duration and returns to the ready pool mid-window.
    Returns what happened, for the scenario-coverage asserts.
    """
    num_users = len(_DURATIONS)
    busy_until = np.zeros(num_users, dtype=np.int64)  # first slot ready again
    waiting = np.zeros(num_users, dtype=np.int64)
    seen = {"gated_while_pending": 0, "midwindow_app": 0, "midwindow_no_app": 0}
    pending = set()  # decided idle, not scheduled since
    scheduled_total = 0
    for slot in range(_TOTAL_SLOTS):
        app = np.array(
            [
                any(start <= slot < start + _APP_SLOTS for start, _ in _LAUNCHES.get(user, ()))
                for user in range(num_users)
            ]
        )
        ready = busy_until <= slot
        if slot in _GATED:
            seen["gated_while_pending"] += 2 in pending
            ready[2] = False
        users = np.flatnonzero(ready)
        context = SlotContext(
            slot=slot, slot_seconds=1.0, num_arrivals=0, num_ready=len(users),
            num_training=int((~ready).sum()), num_users=num_users,
        )
        array_policy.begin_slot(context)
        per_user_policy.begin_slot(context)
        batch = make_batch(
            slot, users, app[users], training_duration_slots=_DURATIONS[users],
            waiting_slots=waiting[users],
            momentum_norm=1.0 + 0.1 * users + 0.01 * slot,  # drifts: staleness matters
            power_app_w=np.where(app[users], 2.4, 2.1),
        )
        schedule = array_policy.decide_all(batch)
        assert schedule.dtype == bool
        assert schedule.tolist() == frozen_generic_decide_all(per_user_policy, batch).tolist(), slot
        for user, flag in zip(users.tolist(), schedule.tolist()):
            just_returned = busy_until[user] == slot and slot % _WINDOW != 0 and slot > 0
            if just_returned:
                seen["midwindow_app" if app[user] else "midwindow_no_app"] += 1
                assert flag == bool(app[user])  # unplanned: opportunistic only
            if flag:
                busy_until[user] = slot + _DURATIONS[user]
                waiting[user] = 0
                scheduled_total += 1
                pending.discard(user)
            else:
                waiting[user] += 1
                pending.add(user)
    assert array_policy.solutions == per_user_policy.solutions
    assert (
        array_policy.decision_cost_evaluations()
        == per_user_policy.decision_cost_evaluations()
    )
    return seen, scheduled_total


class TestOfflineDecideAll:
    @pytest.mark.parametrize("gap_metric", ["gradient_gap", "lag"])
    @pytest.mark.parametrize("unmatched_immediately", [False, True])
    def test_matches_per_user_decide_over_many_windows(
        self, gap_metric, unmatched_immediately
    ):
        def policy():
            made = OfflinePolicy(
                staleness_bound=6.0 if gap_metric == "lag" else 0.4,
                window_slots=_WINDOW,
                schedule_unmatched_immediately=unmatched_immediately,
                gap_metric=gap_metric,
            )
            made.attach_oracle(_ListOracle(_LAUNCHES))
            return made

        array_policy, per_user_policy = policy(), policy()
        seen, scheduled_total = _drive_twins(array_policy, per_user_policy)
        # One knapsack per window with somebody pending (nobody is, at slot 0).
        assert len(array_policy.solutions) == _TOTAL_SLOTS // _WINDOW - 1
        assert all(solution.selected_user_ids for solution in array_policy.solutions)
        assert scheduled_total > 10
        if not unmatched_immediately:
            # The default history did contain what it was built to contain:
            # a pending user gated out of the pool and back, and users
            # becoming ready mid-window with and without a foreground app.
            assert seen["gated_while_pending"] > 0
            assert seen["midwindow_app"] > 0
            assert seen["midwindow_no_app"] > 0

    def test_reset_forgets_plans_and_pending_users(self):
        policy = OfflinePolicy(staleness_bound=1000.0, window_slots=_WINDOW)
        policy.attach_oracle(_ListOracle(_LAUNCHES))
        twin = OfflinePolicy(staleness_bound=1000.0, window_slots=_WINDOW)
        twin.attach_oracle(_ListOracle(_LAUNCHES))
        _drive_twins(policy, twin)
        policy.reset()
        assert policy.decision_cost_evaluations() == 0
        assert policy.solutions == []
        # Planning after a reset sees nobody pending.
        policy.begin_slot(
            SlotContext(slot=0, slot_seconds=1.0, num_arrivals=0, num_ready=0,
                        num_training=0, num_users=6)
        )
        assert policy.solutions == []

    def test_empty_ready_pool(self):
        policy = OfflinePolicy()
        assert policy.decide_all(make_batch(0, [], [])).tolist() == []
        assert policy.decision_cost_evaluations() == 0

    def test_interval_wrapper_matches_the_frozen_fallback(self):
        """The wrapper's own array rule equals the per-user fallback it used
        to take."""
        assert DecisionIntervalPolicy.decide_all is not SchedulingPolicy.decide_all
        assert getattr(SchedulingPolicy.decide_all, "__isabstractmethod__", False)

        def inner():
            made = OfflinePolicy(staleness_bound=0.4, window_slots=_WINDOW)
            made.attach_oracle(_ListOracle(_LAUNCHES))
            return made

        # interval 1 reduces to the inner policy: the wrapped frozen per-user
        # path and the bare array path agree over the whole history ...
        array_policy = inner()
        wrapped = DecisionIntervalPolicy(inner(), interval_slots=1)
        wrapped.solutions = wrapped.inner.solutions  # what _drive_twins compares
        _drive_twins(array_policy, wrapped)
        # ... and so do the wrapped array path and the bare frozen one.
        wrapped = DecisionIntervalPolicy(inner(), interval_slots=1)
        wrapped.solutions = wrapped.inner.solutions
        _drive_twins(wrapped, inner())


# ---------------------------------------------------------------------------
# (c) The Eq. (4) factor table
# ---------------------------------------------------------------------------


class TestLagFactorTable:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9])
    def test_table_reads_equal_the_scalar_function(self, beta):
        tables = {}
        lags = np.arange(301)
        factors = momentum_lag_factor_batch(np.full(301, beta), lags, tables)
        assert factors.tolist() == [momentum_lag_factor(beta, lag) for lag in range(301)]
        # A lag beyond the current table size extends the table.
        far = 4 * tables[beta].size + 3
        again = momentum_lag_factor_batch(np.full(2, beta), np.array([far, 1]), tables)
        assert again.tolist() == [momentum_lag_factor(beta, far), momentum_lag_factor(beta, 1)]
        assert tables[beta].size > far
        assert list(tables) == [beta]

    def test_first_read_may_be_the_far_one(self):
        tables = {}
        factors = momentum_lag_factor_batch(np.full(1, 0.9), np.array([1000]), tables)
        assert factors.tolist() == [momentum_lag_factor(0.9, 1000)]

    def test_negative_lag_is_rejected(self):
        with pytest.raises(ValueError, match="lag"):
            momentum_lag_factor_batch(np.full(2, 0.9), np.array([3, -1]), {})
        with pytest.raises(ValueError, match="lag"):
            momentum_lag_factor_batch(np.array([0.9, 0.5]), np.array([3, -1]), {})

    def test_invalid_momentum_is_rejected(self):
        with pytest.raises(ValueError, match="momentum"):
            momentum_lag_factor_batch(np.full(2, 1.0), np.array([0, 0]), {})

    def test_mixed_momentum_keeps_the_scalar_path(self):
        tables = {}
        betas = np.array([0.9, 0.5, 0.0, 0.9])
        lags = np.array([4, 4, 2, 0])
        factors = momentum_lag_factor_batch(betas, lags, tables)
        assert factors.tolist() == [
            momentum_lag_factor(float(beta), int(lag)) for beta, lag in zip(betas, lags)
        ]
        assert tables == {}

    def test_each_controller_owns_its_tables(self):
        first, second = OnlineController(v=1.0), OnlineController(v=1.0)
        batch = make_batch(0, [0, 1], [False, True], estimated_lag=np.array([2, 5]))
        costs = first.evaluate_batch(batch, 1.0, 1.0)
        assert list(first._lag_factor_tables) == [0.9]
        assert second._lag_factor_tables == {}
        for index in range(2):
            scalar = frozen_evaluate(second, batch_row(batch, index), 1.0, 1.0)
            assert costs.schedule_gap[index] == scalar.schedule_gap
            assert costs.schedule_cost[index] == scalar.schedule_cost
            assert costs.idle_cost[index] == scalar.idle_cost


# ---------------------------------------------------------------------------
# (d) The decision log
# ---------------------------------------------------------------------------


class TestDecisionLog:
    def test_array_log_reads_back_as_the_per_user_tuple_list(self):
        array_policy, per_user_policy = OnlinePolicy(v=4000.0), OnlinePolicy(v=4000.0)
        for policy in (array_policy, per_user_policy):
            # Q(t) = 2: worth the co-run premium, not the stand-alone one.
            policy.task_queue.update(arrivals=2, services=0)
        for slot, users, app in [
            (0, [0, 2, 5], [True, False, True]),
            (1, [2], [False]),
            (4, [1, 2, 3, 4], [False, True, True, False]),
        ]:
            batch = make_batch(slot, users, app)
            schedule = array_policy.decide_all(batch)
            frozen_generic_decide_all(per_user_policy, batch)
            schedule[:] = False  # the caller owns the returned array
        log = array_policy.decision_log
        assert log == per_user_policy.decision_log
        assert len(log) == 8 and {decision for _, _, decision in log} == {
            Decision.SCHEDULE,
            Decision.IDLE,
        }
        assert all(type(slot) is int and type(user) is int for slot, user, _ in log)
        assert log[0][:2] == (0, 0) and log[-1][:2] == (4, 4)

    def test_reset_empties_the_log(self):
        policy = OnlinePolicy()
        policy.decide_all(make_batch(3, [0, 1], [True, False]))
        assert len(policy.decision_log) == 2
        policy.reset()
        assert policy.decision_log == []


# ---------------------------------------------------------------------------
# (e) One open per slot in process; piggybacked opens across processes
# ---------------------------------------------------------------------------


def _small_config(**overrides) -> SimulationConfig:
    base = dict(
        num_users=12,
        total_slots=260,
        app_arrival_prob=0.01,
        seed=3,
        num_train_samples=240,
        num_test_samples=120,
        eval_interval_slots=130,
        trace_interval_slots=20,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestSlotOpens:
    def test_single_process_opens_each_executed_slot_exactly_once(self, monkeypatch):
        calls = {"open_slot": [], "run_slot": []}
        for name in calls:
            original = getattr(FleetShard, name)

            def counted(self, slot, *args, _original=original, _name=name):
                calls[_name].append(slot)
                return _original(self, slot, *args)

            monkeypatch.setattr(FleetShard, name, counted)
        result = SimulationEngine(_small_config(), OnlinePolicy(v=4000.0)).run()
        assert result.num_updates > 5  # re-arrivals landed on executed slots
        # Certified-idle regions skip most waiting slots; the rest decide.
        assert len(calls["run_slot"]) > 20
        assert calls["open_slot"] == calls["run_slot"]

    def test_process_shards_still_piggyback_the_next_open(self, monkeypatch):
        piggybacked = []
        original = ProcessShardHandle.wait

        def watched(self):
            reply = original(self)
            if isinstance(reply, SlotExecReply):
                piggybacked.append(reply.spec_open is not None)
            return reply

        monkeypatch.setattr(ProcessShardHandle, "wait", watched)
        config = _small_config(total_slots=120)
        sharded = ShardedEngine(config, OnlinePolicy(v=4000.0), shards=2).run()
        assert any(piggybacked) and not all(piggybacked)
        single = SimulationEngine(config, OnlinePolicy(v=4000.0)).run()
        assert sharded.total_energy_j() == single.total_energy_j()
        assert sharded.num_updates == single.num_updates

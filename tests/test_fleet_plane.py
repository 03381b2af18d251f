"""The fleet plane: derived per-user columns, kept current by events.

``FleetState`` turns a user's activity state into numbers in one place
(``_retarget``) and steps the fleet over those columns (``_step``).  What the
equivalence matrices (``tests/test_fleet.py``, ``tests/test_properties.py``)
hold end to end — the same bits as the per-user reference loop — this file
holds at every transition: after each launch, expiry, start, finish, restore
and rollback, every derived column equals what the *masked* form of the
scalar model computes from the primary arrays, bit for bit.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.policies import ImmediatePolicy
from repro.device.apps import APP_CATALOG, ForegroundApp
from repro.sim.arrivals import ArrivalSchedule
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.fleet import REST_PROBE_SLOTS, FleetState

NUM_USERS = 6
TOTAL_SLOTS = 4_000

#: Users 1 and 4 have no battery; 0 and 3 trickle-charge, 2 and 5 only drain.
CAPACITIES = [400.0, None, 400.0, 400.0, None, 400.0]
CHARGE_RATES = [1.5, 0.0, 0.0, 1.5, 0.0, 0.0]
PHONES = {"pixel2": 0.4, "nexus6": 0.3, "nexus6p": 0.3}


def build_fleet(
    arrival_prob: float = 0.02,
    overhead: bool = True,
    charge_rates=CHARGE_RATES,
    launches=None,
) -> FleetState:
    """A six-phone fleet; ``launches`` (user -> apps) replaces the drawn schedule."""
    config = SimulationConfig(
        num_users=NUM_USERS,
        total_slots=TOTAL_SLOTS,
        app_arrival_prob=arrival_prob,
        seed=0,
        num_train_samples=120,
        num_test_samples=40,
        hidden_dims=(4,),
        device_mix=PHONES,
        user_battery_capacity_j=CAPACITIES,
        user_charge_rate_w=charge_rates,
        min_battery_soc=0.3,
        include_scheduler_overhead=overhead,
    )
    engine = SimulationEngine(config, ImmediatePolicy())
    return FleetState(
        config,
        engine.device_specs,
        engine.power_model,
        engine.batteries,
        engine.arrivals if launches is None else ArrivalSchedule(launches),
    )


def masked_columns(fleet: FleetState) -> dict:
    """The derived columns as the masked scalar-model form computes them.

    Written the way ``FleetState.advance`` was before the fleet plane: four
    activity masks, a power vector filled mask by mask, the slowdown built
    up factor by factor.  Independent of ``_retarget`` on purpose.
    """
    n = fleet.num_users
    app = fleet.app_active
    training = fleet.training_active
    corun = training & app
    training_only = training & ~app
    app_only = app & ~training
    idle = ~training & ~app

    power_w = fleet.idle_w.copy()
    power_w[app_only] = fleet.app_power_w[app_only]
    power_w[training_only] = fleet.training_w[training_only]
    power_w[corun] = fleet.corun_power_w[corun]
    energy_j = power_w * fleet.slot_seconds

    rows = np.zeros((4, n))
    for row, mask in enumerate((idle, app_only, training_only, corun)):
        rows[row, mask] = energy_j[mask]

    slowdown = np.ones(n)
    slowdown[corun] *= fleet.app_slowdown[corun]
    slowdown[corun & ~fleet.heterogeneous] *= 1.10
    throttled = corun & (fleet.temperature_c >= fleet.throttle_temp_c)
    slowdown[throttled] *= fleet.throttle_slowdown[throttled]
    progress = np.zeros(n)
    progress[training] = 1.0 / slowdown[training]

    draw_j = np.zeros(n)
    draw_j[fleet.has_battery] = energy_j[fleet.has_battery]
    charging = fleet.has_battery & idle & (fleet.battery_rate_w > 0)
    charge_add_j = np.zeros(n)
    charge_add_j[charging] = fleet.battery_rate_w[charging] * fleet.slot_seconds
    return {
        "_state": training.astype(np.int8) * 2 + app,
        "_energy_j": energy_j,
        "_thermal_target_c": fleet.ambient_c + fleet.degrees_per_watt * power_w,
        "_energy_rows": rows,
        "_progress": progress,
        "_draw_j": draw_j,
        "_charge_add_j": charge_add_j,
        "_corun_users": np.nonzero(corun)[0],
    }


def bits(array: np.ndarray) -> bytes:
    """Bit-level identity (``0.0 != -0.0``, unlike ``==``)."""
    return np.ascontiguousarray(array).tobytes()


def assert_columns_current(fleet: FleetState) -> None:
    fleet._flush_started()  # a start is retargeted by the slot's advance
    for name, want in masked_columns(fleet).items():
        got = getattr(fleet, name)
        assert got.dtype == want.dtype or name == "_corun_users", name
        assert np.array_equal(got, want) and bits(got.astype(want.dtype)) == bits(want), name
    active = fleet.app_active
    earliest = int(fleet.app_end_slot[active].min()) if active.any() else None
    assert earliest is None or fleet._next_expiry <= earliest
    assert fleet._num_training == int(fleet.training_active.sum())


def accumulators(fleet: FleetState) -> list:
    acc = fleet.accountant
    return [acc.idle_j, acc.app_j, acc.training_j, acc.corunning_j, acc.overhead_j]


def primaries(fleet: FleetState) -> dict:
    state = fleet.state_dict()
    accountant = state.pop("accountant")
    state.update({f"accountant.{key}": value for key, value in accountant.items()})
    return state


def assert_same_primaries(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for key, value in a.items():
        if isinstance(value, np.ndarray) and value.dtype != object:
            assert bits(value) == bits(b[key]), key
        elif isinstance(value, np.ndarray):
            assert value.tolist() == b[key].tolist(), key
        else:
            assert value == b[key], key


class FleetPlaneMachine(RuleBasedStateMachine):
    """Drive a small fleet through every transition; check after each."""

    def __init__(self) -> None:
        super().__init__()
        self.fleet = build_fleet()
        self.slot = 0
        self.opened = -1
        self.placeholder_charge = bits(self.fleet.battery_charge_j[~self.fleet.has_battery])
        self.placeholder_cycle = bits(self.fleet.battery_cycle_j[~self.fleet.has_battery])

    # -- the four activity transitions ------------------------------------------------

    def open_slot(self) -> None:
        if self.opened < self.slot:
            self.fleet.begin_slot_apps(self.slot)  # launches and expiries
            self.opened = self.slot

    @precondition(lambda self: self.slot < TOTAL_SLOTS - 200)
    @rule(
        starters=st.lists(st.integers(0, NUM_USERS - 1), max_size=NUM_USERS, unique=True),
        idle_deciders=st.lists(st.integers(0, NUM_USERS - 1), max_size=NUM_USERS, unique=True),
        slots=st.integers(1, 12),
    )
    def run_slots(self, starters, idle_deciders, slots) -> None:
        """Normal slots: start jobs in the first one, advance, collect finishers."""
        fleet = self.fleet
        for offset in range(slots):
            self.open_slot()
            decided_idle = np.zeros(NUM_USERS, dtype=bool)
            if offset == 0:
                free = [user for user in starters if not fleet.training_active[user]]
                fleet.start_training(np.array(free, dtype=np.int64))
                decided_idle[[u for u in idle_deciders if not fleet.training_active[u]]] = True
            outcome = fleet.advance(decided_idle)
            assert not fleet.training_active[outcome.finished_users].any()
            self.slot += 1
            assert_columns_current(fleet)

    @precondition(lambda self: self.slot < TOTAL_SLOTS - 200)
    @rule(slots=st.integers(1, 150), ticks=st.sampled_from([None, 1, 7]))
    def run_quiet(self, slots, ticks) -> None:
        """A quiet region, as far as the completion bound allows."""
        fleet = self.fleet
        horizon = min(slots, fleet.quiet_horizon(self.slot, TOTAL_SLOTS))
        if horizon <= 0:
            return
        steps = fleet.steps
        advanced, offsets, totals, user_totals = fleet.advance_quiet(
            self.slot, horizon, ticks, capture_user_totals=True
        )
        assert 0 <= advanced <= horizon
        assert fleet.steps == steps + advanced  # one slot step per slot
        assert len(offsets) == len(totals) == len(user_totals)
        assert all((self.slot + offset) % ticks == 0 for offset in offsets)
        if offsets and offsets[-1] == advanced - 1:
            assert totals[-1] == fleet.accountant.total_j()
        self.slot += advanced  # an early hand-back re-opens its slot: idempotent

    @precondition(lambda self: self.slot < TOTAL_SLOTS - 500 and self.fleet._num_training)
    @rule()
    def run_until_a_job_finishes(self) -> None:
        fleet = self.fleet
        for _ in range(400):
            self.open_slot()
            outcome = fleet.advance(np.zeros(NUM_USERS, dtype=bool))
            self.slot += 1
            if len(outcome.finished_users):
                assert (fleet.remaining_slots[outcome.finished_users] <= 0.0).all()
                assert (fleet._state[outcome.finished_users] < 2).all()
                break

    @precondition(lambda self: self.slot < TOTAL_SLOTS - 200)
    @rule(user=st.sampled_from([0, 3]), deficit_j=st.floats(0.25, 25.0))
    def charge_back_across_the_gate(self, user, deficit_j) -> None:
        """A gated ready user on a charger: the region ends on the slot it
        flips (or on the slot an eligible ready user drains below the gate)."""
        fleet = self.fleet
        if fleet.training_active[user]:
            return
        charge_j = fleet.battery_charge_j.copy()
        charge_j[user] = fleet.battery_min_soc[user] * fleet.battery_capacity_j[user] - deficit_j
        ready = fleet.ready.copy()
        ready[user] = True
        self.install(battery_charge_j=charge_j, ready=ready)
        assert user not in fleet.ready_users()
        horizon = min(80, fleet.quiet_horizon(self.slot, TOTAL_SLOTS))
        if horizon <= 0:
            return
        pool_before = set(fleet.ready_users().tolist())
        advanced, *_ = fleet.advance_quiet(self.slot, horizon, 1)
        flipped = set(fleet.ready_users().tolist()) ^ pool_before
        assert (advanced < horizon) <= bool(flipped)  # the only early exit here
        self.slot += advanced

    # -- pushing a user across a threshold ----------------------------------------------

    def install(self, **arrays) -> None:
        state = self.fleet.state_dict()
        state.update(arrays)
        self.fleet.load_state_dict(state)

    @rule(user=st.integers(0, NUM_USERS - 1), margin=st.floats(-0.4, 0.4))
    def set_temperature_near_throttle(self, user, margin) -> None:
        """Heat (or cool) one phone to just around its throttle temperature."""
        temperature_c = self.fleet.temperature_c.copy()
        temperature_c[user] = self.fleet.throttle_temp_c[user] + margin
        self.install(temperature_c=temperature_c)

    @rule(user=st.sampled_from([0, 2, 3, 5]), margin=st.floats(-6.0, 6.0))
    def set_charge_near_gate(self, user, margin) -> None:
        """Leave one battery just around its participation gate."""
        fleet = self.fleet
        charge_j = fleet.battery_charge_j.copy()
        gate_j = fleet.battery_min_soc[user] * fleet.battery_capacity_j[user]
        charge_j[user] = min(max(gate_j + margin, 0.0), fleet.battery_capacity_j[user])
        ready = fleet.ready.copy()
        ready[user] = not fleet.training_active[user]  # a gated *ready* user is watched
        self.install(battery_charge_j=charge_j, ready=ready)

    # -- the two restore paths -----------------------------------------------------------

    @rule()
    def checkpoint_roundtrip(self) -> None:
        """``state_dict`` into a freshly built fleet, which then carries on."""
        self.fleet._flush_started()
        before = primaries(self.fleet)
        restored = build_fleet()
        restored.load_state_dict(copy.deepcopy(self.fleet.state_dict()))
        assert_same_primaries(before, primaries(restored))
        self.fleet = restored

    @precondition(lambda self: self.slot < TOTAL_SLOTS - 200)
    @rule(slots=st.integers(1, 40))
    def quiet_try_and_rollback(self, slots) -> None:
        """The two-phase commit's rollback: snapshot, advance, restore."""
        fleet = self.fleet
        horizon = min(slots, fleet.quiet_horizon(self.slot, TOTAL_SLOTS))
        if horizon <= 0:
            return
        fleet._flush_started()
        before = primaries(fleet)
        snapshot = fleet.quiet_snapshot()
        fleet.advance_quiet(self.slot, horizon, None)
        fleet.quiet_restore(snapshot)
        assert_same_primaries(before, primaries(fleet))

    # -- what must hold after every rule ---------------------------------------------------

    @invariant()
    def columns_equal_the_masked_form(self) -> None:
        assert_columns_current(self.fleet)

    @invariant()
    def scalar_and_array_retarget_agree(self) -> None:
        fleet = self.fleet
        names = [name for name in masked_columns(fleet) if name != "_corun_users"]
        for users in ([0], [NUM_USERS - 1, 2]):
            fleet._retarget_many(np.array(users))
            array_form = {name: getattr(fleet, name).copy() for name in names}
            for user in users:
                fleet._retarget_one(user)
            for name in names:
                assert bits(getattr(fleet, name)) == bits(array_form[name]), name

    @invariant()
    def no_accumulator_holds_negative_zero(self) -> None:
        for values in accumulators(self.fleet):
            assert not np.signbit(values).any()

    @invariant()
    def placeholders_keep_their_bits(self) -> None:
        fleet = self.fleet
        assert bits(fleet.battery_charge_j[~fleet.has_battery]) == self.placeholder_charge
        assert bits(fleet.battery_cycle_j[~fleet.has_battery]) == self.placeholder_cycle


TestFleetPlaneMachine = FleetPlaneMachine.TestCase
TestFleetPlaneMachine.settings = settings(
    max_examples=25,
    stateful_step_count=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


#: Slots for a phone at ambient to reach the floating-point fixpoint of its
#: idle RC target: the gap shrinks by exp(-1/120) per slot, ~3 700 slots to
#: fall below half an ulp.
SETTLE_SLOTS = 6_000


class TestRest:
    def drained_idle_fleet(self, **kwargs) -> FleetState:
        """Nobody trains, every battery is empty and nothing charges it."""
        fleet = build_fleet(charge_rates=[0.0] * NUM_USERS, **kwargs)
        state = fleet.state_dict()
        state["battery_charge_j"] = np.where(fleet.has_battery, 0.0, fleet.battery_charge_j)
        fleet.load_state_dict(state)
        return fleet

    def test_a_fleet_at_rest_is_woken_by_one_launch(self):
        launch_slot = SETTLE_SLOTS + 100
        app = ForegroundApp(APP_CATALOG["zoom"], arrival_slot=launch_slot, duration_slots=30)
        fleet = self.drained_idle_fleet(overhead=False, launches={3: [app]})
        advanced, *_ = fleet.advance_quiet(0, launch_slot, None)
        assert advanced == launch_slot
        assert fleet._thermal_rest and fleet._battery_rest
        assert fleet.thermal_rest_slots > 0
        assert fleet.battery_rest_slots >= launch_slot - REST_PROBE_SLOTS
        assert fleet.retargets == 0
        # Skipping a plane at rest changes nothing: one more explicit update
        # returns the same temperatures, bit for bit.
        at_rest = fleet.temperature_c.copy()
        moved = at_rest + (fleet._thermal_target_c - at_rest) * fleet.thermal_alpha
        assert bits(moved) == bits(at_rest)

        fleet.begin_slot_apps(launch_slot)
        assert fleet.retargets == 1 and fleet.app_active.tolist().count(True) == 1
        assert not fleet._thermal_rest and not fleet._battery_rest
        assert_columns_current(fleet)
        fleet.advance_quiet(launch_slot, 10, None)
        assert fleet.temperature_c[3] > at_rest[3]
        assert bits(np.delete(fleet.temperature_c, 3)) == bits(np.delete(at_rest, 3))

    def test_rest_skips_are_exact(self):
        """Same region, with the probes and with rest never declared."""
        resting = self.drained_idle_fleet(arrival_prob=0.0, overhead=False)
        awake = self.drained_idle_fleet(arrival_prob=0.0, overhead=False)
        awake._until_probe = 10 * SETTLE_SLOTS  # never probes, so never rests
        for fleet in (resting, awake):
            advanced, *_ = fleet.advance_quiet(0, SETTLE_SLOTS, 50)
            assert advanced == SETTLE_SLOTS
        assert resting.thermal_rest_slots > 0 and resting.battery_rest_slots > 0
        assert awake.thermal_rest_slots == 0 and awake.battery_rest_slots == 0
        assert_same_primaries(primaries(resting), primaries(awake))

    def test_overhead_wakes_the_batteries(self):
        fleet = self.drained_idle_fleet(arrival_prob=0.0, overhead=True)
        fleet.advance_quiet(0, 2 * REST_PROBE_SLOTS, None)
        assert fleet._battery_rest
        decided_idle = np.zeros(NUM_USERS, dtype=bool)
        decided_idle[0] = True
        fleet.advance(decided_idle)
        assert not fleet._battery_rest
        assert fleet.accountant.overhead_j[0] > 0.0


class TestSatelliteReports:
    def test_final_battery_soc_and_stalled_users_match_the_per_user_loops(self):
        fleet = build_fleet()
        state = fleet.state_dict()
        state["battery_charge_j"] = np.where(fleet.has_battery, 37.5, fleet.battery_charge_j)
        fleet.load_state_dict(state)
        assert fleet.final_battery_soc() == [
            float(fleet.battery_charge_j[u] / fleet.battery_capacity_j[u])
            for u in range(NUM_USERS)
            if fleet.has_battery[u]
        ]
        # Below the gate with no charger and not training: users 2 and 5.
        assert fleet.stalled_sync_users() == [2, 5]
        assert all(type(user) is int for user in fleet.stalled_sync_users())
        assert all(type(soc) is float for soc in fleet.final_battery_soc())

    def test_a_fleet_without_batteries_never_divides(self, monkeypatch):
        config = SimulationConfig(
            num_users=4, total_slots=50, seed=0, num_train_samples=80,
            num_test_samples=40, hidden_dims=(4,),
        )
        engine = SimulationEngine(config, ImmediatePolicy())
        fleet = FleetState(
            config, engine.device_specs, engine.power_model, engine.batteries,
            engine.arrivals,
        )
        monkeypatch.setattr(
            FleetState, "battery_ok", lambda self: pytest.fail("battery_ok on a fleet with no battery")
        )
        fleet.make_ready(1, 0, np.zeros(1))
        assert fleet.ready_users().tolist() == [1]
        assert fleet.stalled_sync_users() == []
        fleet.advance_quiet(0, 5, None)
        fleet.advance(np.zeros(4, dtype=bool))

    def test_plane_counters_reach_the_profile_report(self):
        config = SimulationConfig(
            num_users=6, total_slots=200, app_arrival_prob=0.01, seed=3,
            num_train_samples=120, num_test_samples=40, hidden_dims=(4,),
        )
        plain = SimulationEngine(config, ImmediatePolicy()).run()
        profiled = SimulationEngine(config, ImmediatePolicy(), profile=True).run()
        assert plain.total_energy_j() == profiled.total_energy_j()
        (plane,) = profiled.timers.fleet_planes
        assert plane["steps"] == config.total_slots
        assert plane["retargets"] > 0
        assert "shard 0 fleet plane: 200 slot steps" in profiled.timers.report()

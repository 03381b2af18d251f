"""Equivalence of the fleet engine (both modes) and the per-user loop engine.

The contract (see :mod:`repro.sim.fleet`) is *bitwise* identity, not
approximate agreement: with the same configuration and seed, every
execution mode must produce the same decisions, the same Eq. (10) energy
traces, the same Eq. (12) gap traces, the same queue backlogs and the same
applied updates — every floating-point value compared with ``==``.  Three
modes are compared:

* ``loop`` — the per-user reference loop (the executable specification);
* ``fleet`` with ``fast_forward=False`` — the vectorized slot-by-slot path;
* ``fleet`` with ``fast_forward=True`` — the event-horizon fast-forward
  path, which advances whole quiet regions in fused kernels.

The comparison configs keep the paper's 25-user fleet but shrink the
horizon and the synthetic dataset so the whole module runs in seconds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.offline import OfflinePolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import ImmediatePolicy, SyncPolicy
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.fleet import FleetEnergyAccountant
from repro.sim.shard import ShardedEngine

from oracle import make_engine


def _paper_fleet_config(**overrides) -> SimulationConfig:
    """25 users (the Section VII.B fleet size), short horizon, small data."""
    base = dict(
        num_users=25,
        total_slots=400,
        app_arrival_prob=0.01,
        seed=0,
        num_train_samples=600,
        num_test_samples=300,
        eval_interval_slots=200,
        trace_interval_slots=10,
    )
    base.update(overrides)
    return SimulationConfig(**base)


#: The three execution modes of the equivalence matrix: (name, mode, ff).
EXECUTION_MODES = (
    ("loop", "loop", False),
    ("fleet", "fleet", False),
    ("fast-forward", "fleet", True),
)


def _run_matrix(config: SimulationConfig, make_policy):
    """Run the same workload under every execution mode with fresh policies.

    Each engine builds its own dataset from the config seed — identical
    data, so the comparison is still run-for-run exact.
    """
    results = {}
    policies = {}
    for name, mode, fast_forward in EXECUTION_MODES:
        policy = make_policy()
        engine = make_engine(mode, config, policy, fast_forward=fast_forward)
        results[name] = engine.run()
        policies[name] = policy
    return results, policies


def _run_both(config: SimulationConfig, make_policy):
    """Backward-compatible helper: loop and fast-forward-fleet results."""
    results, policies = _run_matrix(config, make_policy)
    return (
        results["loop"],
        results["fast-forward"],
        policies["loop"],
        policies["fast-forward"],
    )


def _assert_matrix_bitwise_equal(config, results):
    """Every pair of execution modes must match on every observable trace."""
    reference = results["loop"]
    for name, result in results.items():
        if name != "loop":
            # Shards sum their own per-slot subtotals: the one plot-only
            # series that re-associates (FleetEnergyAccountant.merged).
            _assert_bitwise_equal(
                config, reference, result, per_slot_series=not name.endswith("-shard")
            )


def _assert_bitwise_equal(config, loop, fleet, per_slot_series=True):
    """Every observable trace of the two runs must match exactly."""
    # Decisions and job mix.
    assert loop.trace.decisions == fleet.trace.decisions
    assert loop.trace.corun_jobs == fleet.trace.corun_jobs
    assert loop.trace.background_jobs == fleet.trace.background_jobs
    # Eq. (10) energy: totals, per-user breakdowns and the per-slot series.
    assert loop.total_energy_j() == fleet.total_energy_j()
    if per_slot_series:
        assert loop.accountant.per_slot_totals() == fleet.accountant.per_slot_totals()
    assert loop.accountant.training_related_j() == fleet.accountant.training_related_j()
    for user in range(config.num_users):
        assert loop.accountant.user_breakdown(user) == fleet.accountant.user_breakdown(user)
    # Slot-sampled series (energy, queues, gap sum) and applied updates.
    assert loop.trace.slot_samples == fleet.trace.slot_samples
    # The queue backlogs inside the sampled SlotSamples must agree
    # slot-for-slot (not merely on aggregate statistics).
    assert [s.queue_length for s in loop.trace.slot_samples] == [
        s.queue_length for s in fleet.trace.slot_samples
    ]
    assert [s.virtual_queue_length for s in loop.trace.slot_samples] == [
        s.virtual_queue_length for s in fleet.trace.slot_samples
    ]
    assert loop.trace.update_samples == fleet.trace.update_samples
    # Eq. (12) per-user gap traces.
    for user in range(config.num_users):
        assert loop.trace.user_gap_trace(user) == fleet.trace.user_gap_trace(user)
    # Queue backlogs, model updates, accuracy curve, batteries, comms.
    assert loop.queue_history == fleet.queue_history
    assert loop.virtual_queue_history == fleet.virtual_queue_history
    assert loop.num_updates == fleet.num_updates
    assert loop.decision_evaluations == fleet.decision_evaluations
    assert loop.accuracy.accuracies() == fleet.accuracy.accuracies()
    assert loop.accuracy.times() == fleet.accuracy.times()
    assert loop.final_battery_soc == fleet.final_battery_soc
    assert loop.comm_bytes_mb == fleet.comm_bytes_mb
    assert loop.comm_failures == fleet.comm_failures
    assert loop.device_names == fleet.device_names


class TestBackendEquivalence:
    def test_online_policy_identical(self):
        """The headline case: the Lyapunov scheduler at the paper's 25 users."""
        config = _paper_fleet_config()
        results, policies = _run_matrix(
            config, lambda: OnlinePolicy(v=4000.0, staleness_bound=500.0)
        )
        _assert_matrix_bitwise_equal(config, results)
        # The per-decision log (slot, user, decision) matches entry for entry,
        # including the same-slot lag coupling between scheduled users.
        reference = policies["loop"]
        for name, policy in policies.items():
            assert policy.decision_log == reference.decision_log, name
            assert policy.messages_to_server == reference.messages_to_server, name
            assert policy.messages_to_users == reference.messages_to_users, name

    @pytest.mark.parametrize("v", [0.0, 2000.0, 100000.0])
    def test_online_policy_identical_across_v(self, v):
        """Low V schedules eagerly (heavy same-slot coupling), high V idles."""
        config = _paper_fleet_config(total_slots=250, seed=1)
        results, policies = _run_matrix(
            config, lambda: OnlinePolicy(v=v, staleness_bound=500.0)
        )
        _assert_matrix_bitwise_equal(config, results)
        for name, policy in policies.items():
            assert policy.decision_log == policies["loop"].decision_log, name

    def test_immediate_policy_identical(self):
        config = _paper_fleet_config(seed=2, total_slots=300)
        results, _ = _run_matrix(config, ImmediatePolicy)
        _assert_matrix_bitwise_equal(config, results)

    def test_sync_policy_identical(self):
        config = _paper_fleet_config(seed=3, total_slots=300)
        results, _ = _run_matrix(config, SyncPolicy)
        _assert_matrix_bitwise_equal(config, results)

    def test_offline_policy_identical_via_fallback(self):
        """The knapsack planner's plan lookup over a whole ready pool
        (``OfflinePolicy.decide_all``) reproduces the loop's batches of one
        exactly."""
        config = _paper_fleet_config(seed=4, total_slots=300)
        results, _ = _run_matrix(
            config, lambda: OfflinePolicy(staleness_bound=1000.0, window_slots=100)
        )
        _assert_matrix_bitwise_equal(config, results)

    def test_battery_and_overhead_identical(self):
        """Battery gating/charging and the Table III decision overhead are
        vectorized too; both must match the scalar models bit for bit."""
        config = _paper_fleet_config(
            seed=5,
            total_slots=300,
            battery_capacity_j=5000.0,
            battery_charge_rate_w=2.0,
            min_battery_soc=0.3,
            include_scheduler_overhead=True,
            diurnal_arrivals=True,
        )
        results, _ = _run_matrix(config, lambda: OnlinePolicy(v=4000.0))
        _assert_matrix_bitwise_equal(config, results)
        fleet = results["fast-forward"]
        assert fleet.final_battery_soc  # batteries were actually in play
        assert any(soc < 1.0 for soc in fleet.final_battery_soc)

    @pytest.mark.parametrize(
        "policy_name",
        ["immediate", "sync", "online"],
    )
    def test_battery_enabled_matrix(self, policy_name):
        """Battery-gated fleets across all policies (deep discharge included)."""
        config = _paper_fleet_config(
            seed=6,
            total_slots=300,
            battery_capacity_j=1200.0,
            battery_charge_rate_w=0.0,
            min_battery_soc=0.2,
        )
        make = {
            "immediate": ImmediatePolicy,
            "sync": SyncPolicy,
            "online": lambda: OnlinePolicy(v=4000.0, staleness_bound=500.0),
        }[policy_name]
        results, _ = _run_matrix(config, make)
        _assert_matrix_bitwise_equal(config, results)

    @pytest.mark.parametrize("policy_name", ["immediate", "online"])
    def test_diurnal_arrivals_matrix(self, policy_name):
        """The day/night arrival process drives the same app churn everywhere."""
        config = _paper_fleet_config(seed=7, total_slots=300, diurnal_arrivals=True)
        make = {
            "immediate": ImmediatePolicy,
            "online": lambda: OnlinePolicy(v=4000.0, staleness_bound=500.0),
        }[policy_name]
        results, _ = _run_matrix(config, make)
        _assert_matrix_bitwise_equal(config, results)

    def test_sync_aggregation_with_batteries_matrix(self):
        """Synchronous rounds under battery gating: the quorum logic and the
        fast-forward round-skip argument must agree with the loop engine."""
        config = _paper_fleet_config(
            seed=8,
            total_slots=350,
            battery_capacity_j=6000.0,
            battery_charge_rate_w=1.0,
            min_battery_soc=0.25,
        )
        results, _ = _run_matrix(config, SyncPolicy)
        _assert_matrix_bitwise_equal(config, results)


#: Phones only: a dev board has no battery and would train through the night.
PHONE_MIX = {"pixel2": 1.0 / 3, "nexus6": 1.0 / 3, "nexus6p": 1.0 / 3}


def _run_five(config: SimulationConfig, make_policy, trace_level="full", **kwargs):
    """The three-way matrix plus 2 and 3 inline shards, fresh policy each."""
    results, _ = _run_matrix(config, make_policy)
    for name, (_, mode, fast_forward) in zip(list(results), EXECUTION_MODES):
        if mode == "fleet" and (trace_level != "full" or kwargs):
            results[name] = SimulationEngine(
                config, make_policy(), fast_forward=fast_forward,
                trace_level=trace_level, **kwargs,
            ).run()
    for shards in (2, 3):
        results[f"{shards}-shard"] = ShardedEngine(
            config, make_policy(), shards=shards, inline=True,
            trace_level=trace_level, **kwargs,
        ).run()
    return results


def _assert_headlines_equal(reference, result):
    """What survives ``trace_level="summary"``: totals, breakdowns, curves."""
    assert reference.total_energy_j() == result.total_energy_j()
    assert reference.accountant.training_related_j() == result.accountant.training_related_j()
    assert reference.num_updates == result.num_updates
    assert dict(reference.trace.decisions) == dict(result.trace.decisions)
    assert reference.accuracy.accuracies() == result.accuracy.accuracies()
    assert reference.final_battery_soc == result.final_battery_soc
    assert reference.trace.update_samples == result.trace.update_samples


class TestFleetPlaneRegimes:
    """Regimes the event-driven fleet plane treats differently, each held to
    the reference loop in all five execution modes — the independent oracle
    for the slot step ``advance`` and ``advance_quiet`` share."""

    @pytest.mark.parametrize("num_users", [8, 128])
    def test_fleet_sizes_around_the_old_kernel_fork(self, num_users):
        """One slot step at every size (the quiet kernel used to switch from
        Python loops to NumPy at 96 users)."""
        config = _paper_fleet_config(
            num_users=num_users,
            total_slots=300,
            num_train_samples=max(600, 5 * num_users),
            device_mix=PHONE_MIX,
            battery_capacity_j=250.0,
            battery_charge_rate_w=1.0,
            min_battery_soc=0.3,
            include_scheduler_overhead=True,
        )
        results = _run_five(config, lambda: OnlinePolicy(v=4000.0, staleness_bound=500.0))
        _assert_matrix_bitwise_equal(config, results)

    @pytest.mark.parametrize("trace_level", ["full", "summary"])
    def test_charging_flip_cuts_a_region_on_a_trace_tick(self, trace_level):
        """Every slot is a tick, so the slot whose charge crosses the gate
        — the last one of its quiet region — is captured as one."""
        config = _paper_fleet_config(
            num_users=9,
            total_slots=700,
            trace_interval_slots=1,
            app_arrival_prob=0.004,
            device_mix=PHONE_MIX,
            battery_capacity_j=180.0,
            battery_charge_rate_w=2.5,
            min_battery_soc=0.4,
        )
        results = _run_five(config, ImmediatePolicy, trace_level=trace_level)
        loop = results["loop"]
        # A job empties a 180 J battery, so a user's second upload means it
        # idled below the gate and charged back across it.
        assert loop.num_updates > config.num_users
        if trace_level == "full":
            _assert_matrix_bitwise_equal(config, results)
        else:
            for name, result in results.items():
                if name != "loop":
                    assert result.trace.slot_samples == []
                    _assert_headlines_equal(loop, result)

    def test_an_app_that_speeds_training_up_ends_the_region(self, monkeypatch):
        """``training_slowdown < 1``: more than a slot of progress per slot
        voids the completion bound, so those slots run one by one."""
        import dataclasses

        from repro.device.apps import APP_CATALOG

        for name in ("news", "zoom"):
            monkeypatch.setitem(
                APP_CATALOG, name, dataclasses.replace(APP_CATALOG[name], training_slowdown=0.6)
            )
        config = _paper_fleet_config(num_users=8, total_slots=500, app_arrival_prob=0.02)
        results = _run_five(config, ImmediatePolicy)
        assert results["loop"].trace.corun_jobs > 0
        _assert_matrix_bitwise_equal(config, results)

    def test_a_long_region_with_nothing_moving(self):
        """Drained phones, no charger, no app: both planes come to rest and
        the region is thousands of slots of accumulator adds."""
        config = _paper_fleet_config(
            num_users=8,
            total_slots=6_500,
            app_arrival_prob=0.0,
            trace_interval_slots=500,
            eval_interval_slots=6_500,
            device_mix=PHONE_MIX,
            battery_capacity_j=150.0,
            battery_charge_rate_w=0.0,
            min_battery_soc=0.2,
        )
        results = _run_five(config, ImmediatePolicy, profile=True)
        _assert_matrix_bitwise_equal(config, results)
        for name in ("fleet", "fast-forward"):
            (plane,) = results[name].timers.fleet_planes
            assert plane["steps"] == config.total_slots
            assert plane["battery_rest_slots"] > 64
            assert plane["thermal_rest_slots"] > 64
        assert len(results["3-shard"].timers.fleet_planes) == 3

    def test_checkpoint_mid_region_restored_on_two_shards(self):
        """A snapshot taken inside a quiet region (the checkpointer caps the
        region there) carries only primary arrays; the restored shards
        rebuild their columns and finish the region."""
        from test_checkpoint import interrupt_at

        config = _paper_fleet_config(
            num_users=9,
            total_slots=900,
            app_arrival_prob=0.004,
            device_mix=PHONE_MIX,
            battery_capacity_j=180.0,
            battery_charge_rate_w=0.4,
            min_battery_soc=0.4,
        )
        reference = make_engine("loop", config, ImmediatePolicy()).run()
        uninterrupted = SimulationEngine(config, ImmediatePolicy(), profile=True).run()
        # Slot 450 is deep inside the drained stretch: nothing is decided
        # there, so the single engine is fast-forwarding when it stops.
        assert not any(450 - 5 <= s.slot <= 450 + 5 and s.num_ready for s in reference.trace.slot_samples)
        checkpoint = interrupt_at(SimulationEngine(config, ImmediatePolicy()), 450)
        resumed = ShardedEngine.restore(checkpoint, shards=2, inline=True).run()
        _assert_bitwise_equal(config, reference, uninterrupted)
        _assert_bitwise_equal(config, reference, resumed, per_slot_series=False)


class TestFleetScale:
    def test_thousand_user_run_completes(self):
        """Fleet size is a NumPy axis: a 1000-user online run finishes.

        The horizon is short (training jobs span hundreds of slots, so no
        local epochs complete) — the point is that the per-slot cost of
        decisions, device advancement and energy accounting no longer
        scales with Python-loop overhead.
        """
        config = SimulationConfig(
            num_users=1000,
            total_slots=60,
            app_arrival_prob=0.01,
            seed=0,
            num_train_samples=1000,
            num_test_samples=200,
            hidden_dims=(32,),
            eval_interval_slots=60,
            trace_interval_slots=20,
        )
        policy = OnlinePolicy(v=4000.0, staleness_bound=500.0)
        result = SimulationEngine(config, policy).run()
        assert result.total_energy_j() > 0.0
        assert policy.decision_cost_evaluations() >= config.num_users
        assert len(result.queue_history) == config.total_slots + 1
        assert len(result.accountant.per_slot_totals()) == config.total_slots


    def test_users_on_one_model_version_pin_one_view(self):
        """The server hands out one view per version, so the pinned-base map
        (and a snapshot of it) holds each base vector once, not once a user."""
        config = _paper_fleet_config(num_users=60)
        engine = SimulationEngine(
            config, OnlinePolicy(v=4000.0, staleness_bound=500.0)
        )
        engine.run()
        pinned = engine.core._pinned_base
        versions = {engine.server.downloaded_version(user) for user in pinned}
        views = {id(view): view for view in pinned.values()}
        assert len(pinned) >= 50 and 1 < len(versions) < len(pinned)
        assert len(views) == len(versions)


class TestOneEngineFrontEnd:
    def test_the_engine_has_no_backend_switch(self):
        for backend in ("loop", "fleet"):
            with pytest.raises(TypeError, match="backend"):
                SimulationEngine(
                    _paper_fleet_config(), ImmediatePolicy(), backend=backend
                )

    def test_the_oracle_has_no_checkpoint_surface(self):
        oracle = make_engine("loop", _paper_fleet_config(), ImmediatePolicy())
        assert not hasattr(oracle, "restore") and not hasattr(oracle, "snapshot")
        with pytest.raises(TypeError):
            oracle.run(object())  # no checkpointer parameter


class TestFleetEnergyAccountant:
    def test_matches_loop_reduction_order(self):
        """total_j must be the left-to-right Python sum of per-user totals."""
        accountant = FleetEnergyAccountant(3)
        energy = np.array([1.1, 2.2, 3.3])
        # One user idle, one on an app, one training: each energy sits in
        # the routing row of its user's state, 0.0 in the other three.
        routed = np.array(
            [[1.1, 0.0, 0.0], [0.0, 2.2, 0.0], [0.0, 0.0, 3.3], [0.0, 0.0, 0.0]]
        )
        overhead = np.array([0.5, 0.0, 0.0])
        accountant.add_slot(routed, float(sum((energy + overhead).tolist())), overhead)
        expected = sum([1.1 + 0.5, 2.2, 3.3])
        assert accountant.total_j() == expected
        assert accountant.total_kj() == expected / 1000.0
        assert accountant.user_breakdown(0).idle_j == 1.1
        assert accountant.user_breakdown(0).overhead_j == 0.5
        assert accountant.training_related_j() == 3.3
        accountant.close_slot()
        assert accountant.per_slot_totals() == [expected]

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            FleetEnergyAccountant(0)

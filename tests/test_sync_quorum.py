"""Synchronous-round quorum under battery gating (deadlock regression).

Before the quorum fix, ``SimulationEngine._maybe_complete_sync_round``
waited for uploads from *all* ``num_users``.  A user below its battery
participation threshold with a zero charge rate can never train again, so
one drained device silently stalled every subsequent round: the run
completed, but the global model never advanced past the partial buffer.

The fix completes the round over the participating quorum — every user
except the permanently *stalled* ones (gated, zero charge rate, not
currently training) — and must do so identically in the loop engine, the
slot-by-slot fleet backend and the fast-forward path.
"""

from __future__ import annotations

import pytest

from repro.core.policies import SyncPolicy
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine

from oracle import make_engine


def _battery_sync_config(**overrides) -> SimulationConfig:
    base = dict(
        num_users=8,
        total_slots=900,
        app_arrival_prob=0.01,
        seed=0,
        num_train_samples=240,
        num_test_samples=100,
        eval_interval_slots=300,
        battery_capacity_j=50_000.0,
        battery_charge_rate_w=0.0,
        min_battery_soc=0.2,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _run_with_drained_user(mode: str, fast_forward: bool):
    """Run a sync workload with one phone pre-drained below the threshold."""
    config = _battery_sync_config()
    engine = make_engine(mode, config, SyncPolicy(), fast_forward=fast_forward)
    drained = next(
        user for user, battery in enumerate(engine.batteries) if battery is not None
    )
    engine.batteries[drained].charge_j = 0.05 * engine.batteries[drained].capacity_j
    return drained, engine.run()


class TestSyncQuorumDeadlock:
    @pytest.mark.parametrize(
        "mode,fast_forward",
        [("loop", False), ("fleet", False), ("fleet", True)],
    )
    def test_rounds_complete_without_the_stalled_user(self, mode, fast_forward):
        drained, result = _run_with_drained_user(mode, fast_forward)
        # Rounds keep completing: the global model receives updates from the
        # participating quorum (7 users per round here).
        assert result.num_updates > 0
        assert result.num_updates % (result.config.num_users - 1) == 0
        # The stalled user never uploads.
        participants = {u.user_id for u in result.trace.update_samples}
        assert drained not in participants
        assert len(participants) == result.config.num_users - 1

    def test_all_backends_agree_bitwise(self):
        runs = [
            _run_with_drained_user(mode, fast_forward)[1]
            for mode, fast_forward in (
                ("loop", False),
                ("fleet", False),
                ("fleet", True),
            )
        ]
        reference = runs[0]
        for other in runs[1:]:
            assert other.num_updates == reference.num_updates
            assert other.total_energy_j() == reference.total_energy_j()
            assert other.trace.update_samples == reference.trace.update_samples
            assert other.accountant.per_slot_totals() == reference.accountant.per_slot_totals()
            assert other.final_battery_soc == reference.final_battery_soc

    def test_full_fleet_quorum_unchanged_without_batteries(self):
        """No batteries: the round still waits for every single user."""
        config = _battery_sync_config(battery_capacity_j=None, total_slots=600)
        result = SimulationEngine(config, SyncPolicy()).run()
        assert result.num_updates > 0
        assert result.num_updates % config.num_users == 0

    def test_gated_user_with_charger_is_waited_for(self):
        """A gated user that charges back up is *not* stalled: rounds wait.

        A sparse arrival rate keeps the drained device idle (charging only
        happens while idle), and the fast charger brings it back above the
        participation threshold well inside the horizon.
        """
        config = _battery_sync_config(
            battery_charge_rate_w=100.0,
            app_arrival_prob=0.0005,
            total_slots=1500,
            seed=1,
        )
        engine = SimulationEngine(config, SyncPolicy())
        drained = next(
            user
            for user, battery in enumerate(engine.batteries)
            if battery is not None
        )
        engine.batteries[drained].charge_j = 0.1 * engine.batteries[drained].capacity_j
        result = engine.run()
        # Once recharged above the threshold the user rejoins, so completed
        # rounds always include the whole fleet.
        assert result.num_updates > 0
        assert result.num_updates % config.num_users == 0
        participants = {u.user_id for u in result.trace.update_samples}
        assert drained in participants


class TestOfflineOracleCrossEngine:
    """A policy shared across engines must never plan on the wrong schedule."""

    def test_each_run_attaches_its_own_schedule(self):
        from repro.core.offline import OfflinePolicy

        config = SimulationConfig(
            num_users=4, total_slots=60, app_arrival_prob=0.02, seed=0,
            num_train_samples=120, num_test_samples=60, eval_interval_slots=30,
        )
        policy = OfflinePolicy(staleness_bound=500.0, window_slots=30)
        first = SimulationEngine(config, policy)
        second = SimulationEngine(config.scaled(seed=1), policy)
        # Attachment happens at run time, after the reset: each engine plans
        # against its own pre-generated schedule even with a shared policy.
        first.run()
        assert policy._oracle is first.arrivals
        second.run()
        assert policy._oracle is second.arrivals

    def test_shared_policy_matches_fresh_policies(self):
        from repro.core.offline import OfflinePolicy

        config = SimulationConfig(
            num_users=4, total_slots=80, app_arrival_prob=0.02, seed=0,
            num_train_samples=120, num_test_samples=60, eval_interval_slots=40,
        )
        shared = OfflinePolicy(staleness_bound=500.0, window_slots=40)
        reused_a = SimulationEngine(config, shared).run()
        reused_b = SimulationEngine(config.scaled(seed=1), shared).run()
        fresh_a = SimulationEngine(
            config, OfflinePolicy(staleness_bound=500.0, window_slots=40)
        ).run()
        fresh_b = SimulationEngine(
            config.scaled(seed=1), OfflinePolicy(staleness_bound=500.0, window_slots=40)
        ).run()
        assert reused_a.total_energy_j() == fresh_a.total_energy_j()
        assert reused_b.total_energy_j() == fresh_b.total_energy_j()
        assert reused_a.trace.decisions == fresh_a.trace.decisions
        assert reused_b.trace.decisions == fresh_b.trace.decisions

"""Integration tests: the full simulation engine under every policy."""

import dataclasses

import numpy as np
import pytest

from repro.core.offline import OfflinePolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import ImmediatePolicy, SyncPolicy
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine


class TestImmediateRun:
    def test_energy_is_positive_and_bounded(self, immediate_result, smoke_config):
        total = immediate_result.total_energy_j()
        assert total > 0.0
        # Upper bound: every user at the highest co-running power all the time.
        max_power = 12.0
        assert total < smoke_config.num_users * smoke_config.total_slots * max_power

    def test_energy_at_least_idle_floor(self, immediate_result, smoke_config, table):
        """No schedule can consume less than everyone idling the whole time."""
        min_idle = min(table.idle_power(d) for d in table.devices())
        floor = smoke_config.num_users * smoke_config.total_slots * min_idle
        assert immediate_result.total_energy_j() >= floor

    def test_updates_were_applied(self, immediate_result):
        assert immediate_result.num_updates > 0
        assert len(immediate_result.trace.update_samples) == immediate_result.num_updates

    def test_accuracy_was_evaluated(self, immediate_result, smoke_config):
        samples = immediate_result.accuracy.samples
        assert len(samples) >= 3
        assert samples[0].time_s == 0.0
        assert samples[-1].time_s == pytest.approx(smoke_config.total_seconds())
        assert 0.0 <= immediate_result.final_accuracy() <= 1.0

    def test_accuracy_improves_over_random_guessing(self, immediate_result, smoke_config):
        random_guess = 1.0 / smoke_config.num_classes
        assert immediate_result.best_accuracy() > random_guess + 0.05

    def test_cumulative_energy_is_monotone(self, immediate_result):
        series = [s.cumulative_energy_j for s in immediate_result.trace.slot_samples]
        assert all(b >= a for a, b in zip(series, series[1:]))

    def test_cumulative_energy_ends_at_the_total(self, smoke_config):
        config = dataclasses.replace(smoke_config, trace_interval_slots=1)
        result = SimulationEngine(config, ImmediatePolicy()).run()
        samples = result.trace.slot_samples
        assert [s.slot for s in samples] == list(range(config.total_slots))
        assert samples[-1].cumulative_energy_j == result.total_energy_j()

    def test_immediate_schedules_every_decision(self, immediate_result):
        assert immediate_result.trace.decisions["idle"] == 0
        assert immediate_result.trace.schedule_fraction() == 1.0

    def test_device_assignment_recorded(self, immediate_result, smoke_config):
        assert len(immediate_result.device_names) == smoke_config.num_users

    def test_communication_happened(self, immediate_result):
        assert immediate_result.comm_bytes_mb > 0.0

    def test_engine_is_single_shot(self, smoke_config):
        engine = SimulationEngine(smoke_config, ImmediatePolicy())
        engine.run()
        with pytest.raises(RuntimeError):
            engine.run()


class TestOnlineRun:
    def test_online_saves_energy_vs_immediate(self, online_result, immediate_result):
        assert online_result.total_energy_j() < immediate_result.total_energy_j()
        assert online_result.energy_saving_vs(immediate_result) > 0.05

    def test_online_queue_histories_recorded(self, online_result, smoke_config):
        assert len(online_result.queue_history) == smoke_config.total_slots + 1
        assert max(online_result.queue_history) <= smoke_config.num_users
        assert online_result.mean_queue_length() > 0.0

    def test_online_makes_fewer_updates_than_immediate(self, online_result, immediate_result):
        assert online_result.num_updates <= immediate_result.num_updates

    def test_online_decision_evaluations_counted(self, online_result):
        assert online_result.decision_evaluations > 0

    def test_update_lags_nonnegative(self, online_result):
        lags = online_result.trace.update_lags()
        assert all(lag >= 0 for lag in lags)

    def test_gap_traces_recorded_for_all_users(self, online_result, smoke_config):
        for user in range(smoke_config.num_users):
            assert online_result.trace.per_user_gaps[user]


class TestOtherPolicies:
    def test_sync_rounds_aggregate_all_users(self, smoke_config):
        result = SimulationEngine(smoke_config, SyncPolicy()).run()
        assert result.num_updates > 0
        # Every applied update in sync mode is part of a full round.
        assert result.num_updates % smoke_config.num_users == 0
        assert all(s.sync_round for s in result.trace.update_samples)
        assert all(s.lag == 0 for s in result.trace.update_samples)

    def test_offline_policy_waits_for_corunning(self, smoke_config):
        policy = OfflinePolicy(staleness_bound=1000.0, window_slots=200)
        result = SimulationEngine(smoke_config, policy).run()
        immediate = SimulationEngine(smoke_config, ImmediatePolicy()).run()
        assert result.total_energy_j() < immediate.total_energy_j()
        assert result.num_updates <= immediate.num_updates
        # Most offline jobs should be co-running jobs.
        assert result.trace.corun_jobs >= result.trace.background_jobs

    def test_scheduler_overhead_accounting(self):
        config = SimulationConfig(
            num_users=4, total_slots=300, app_arrival_prob=0.01, seed=7,
            num_train_samples=600, num_test_samples=300, eval_interval_slots=150,
            include_scheduler_overhead=True,
        )
        with_overhead = SimulationEngine(config, OnlinePolicy(v=1e5, staleness_bound=500.0)).run()
        without = SimulationEngine(
            config.scaled(include_scheduler_overhead=False),
            OnlinePolicy(v=1e5, staleness_bound=500.0),
        ).run()
        assert with_overhead.total_energy_j() > without.total_energy_j()
        extra = with_overhead.total_energy_j() - without.total_energy_j()
        # Table III: the decision overhead stays below 10% of idle power.
        assert extra / without.total_energy_j() < 0.10

    def test_non_iid_partitioning_runs(self):
        config = SimulationConfig(
            num_users=4, total_slots=250, app_arrival_prob=0.01, seed=3,
            num_train_samples=400, num_test_samples=200, eval_interval_slots=125,
            non_iid_alpha=0.3,
        )
        result = SimulationEngine(config, ImmediatePolicy()).run()
        assert result.num_updates > 0

    def test_diurnal_arrivals_run(self):
        config = SimulationConfig(
            num_users=4, total_slots=250, app_arrival_prob=0.01, seed=3,
            num_train_samples=400, num_test_samples=200, eval_interval_slots=125,
            diurnal_arrivals=True,
        )
        result = SimulationEngine(config, OnlinePolicy(v=1000.0)).run()
        assert result.total_energy_j() > 0.0

    def test_explicit_device_names(self):
        config = SimulationConfig(
            num_users=3, total_slots=200, app_arrival_prob=0.0, seed=1,
            num_train_samples=300, num_test_samples=100, eval_interval_slots=100,
            device_names=["hikey970", "pixel2", "nexus6"],
        )
        result = SimulationEngine(config, ImmediatePolicy()).run()
        assert result.device_names == ["hikey970", "pixel2", "nexus6"]


class TestDeterminism:
    def test_same_seed_same_result(self):
        config = SimulationConfig(
            num_users=4, total_slots=300, app_arrival_prob=0.01, seed=11,
            num_train_samples=600, num_test_samples=300, eval_interval_slots=150,
        )
        first = SimulationEngine(config, OnlinePolicy(v=4000.0)).run()
        second = SimulationEngine(config, OnlinePolicy(v=4000.0)).run()
        assert first.total_energy_j() == pytest.approx(second.total_energy_j())
        assert first.num_updates == second.num_updates
        assert first.final_accuracy() == pytest.approx(second.final_accuracy())

    def test_different_seeds_differ(self):
        base = SimulationConfig(
            num_users=4, total_slots=300, app_arrival_prob=0.02, seed=11,
            num_train_samples=600, num_test_samples=300, eval_interval_slots=150,
        )
        engines = [
            SimulationEngine(config, ImmediatePolicy()) for config in (base, base.scaled(seed=12))
        ]
        # Each engine trains on its own configuration's data, never another seed's.
        assert engines[0].dataset.x_train.tobytes() != engines[1].dataset.x_train.tobytes()
        first, second = (engine.run() for engine in engines)
        assert first.total_energy_j() != pytest.approx(second.total_energy_j())

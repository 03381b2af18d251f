"""Tests for the battery model (its scalar rules are the reference loop's)
and the software power profiler."""

import pytest

from reference_loop import can_participate, charge, depleted, discharge, equivalent_full_cycles
from repro.energy.battery import Battery
from repro.energy.profiler import PowerProfiler


class TestBattery:
    def test_initial_state(self):
        battery = Battery()
        assert battery.soc == pytest.approx(1.0)
        assert can_participate(battery)
        assert not depleted(battery)

    def test_discharge_reduces_soc(self):
        battery = Battery(capacity_j=1000.0, charge_j=1000.0)
        drawn = discharge(battery, 250.0)
        assert drawn == pytest.approx(250.0)
        assert battery.soc == pytest.approx(0.75)

    def test_discharge_clamps_at_empty(self):
        battery = Battery(capacity_j=100.0, charge_j=30.0)
        drawn = discharge(battery, 50.0)
        assert drawn == pytest.approx(30.0)
        assert depleted(battery)

    def test_participation_threshold(self):
        battery = Battery(capacity_j=100.0, charge_j=15.0, min_participation_soc=0.2)
        assert not can_participate(battery)
        charge(battery, duration_s=1.0)  # +10 J at default 10 W
        assert can_participate(battery)

    def test_charge_clamps_at_capacity(self):
        battery = Battery(capacity_j=100.0, charge_j=95.0, charge_rate_w=10.0)
        added = charge(battery, duration_s=10.0)
        assert added == pytest.approx(5.0)
        assert battery.soc == pytest.approx(1.0)

    def test_equivalent_full_cycles(self):
        battery = Battery(capacity_j=100.0, charge_j=100.0)
        discharge(battery, 100.0)
        charge(battery, duration_s=10.0)
        discharge(battery, 50.0)
        assert equivalent_full_cycles(battery) == pytest.approx(1.5)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Battery(capacity_j=0.0)
        with pytest.raises(ValueError):
            Battery(capacity_j=10.0, charge_j=20.0)
        with pytest.raises(ValueError):
            Battery(min_participation_soc=2.0)

    def test_negative_operations_rejected(self):
        battery = Battery()
        with pytest.raises(ValueError):
            discharge(battery, -1.0)
        with pytest.raises(ValueError):
            charge(battery, -1.0)


class TestPowerProfiler:
    def test_schedule_energies_match_table(self, table):
        profiler = PowerProfiler(table=table, noise_std_w=0.0, seed=0)
        comparison = profiler.profile_schedules("pixel2", "map")
        assert comparison.training_separate.energy_j == pytest.approx(
            table.training_power("pixel2") * table.training_time("pixel2"), rel=1e-6
        )
        assert comparison.corunning.energy_j == pytest.approx(
            table.corun_power("pixel2", "map") * table.corun_time("pixel2", "map"), rel=1e-6
        )

    def test_saving_matches_table_derivation(self, table):
        profiler = PowerProfiler(table=table, noise_std_w=0.0)
        comparison = profiler.profile_schedules("hikey970", "etrade")
        assert comparison.saving_fraction() == pytest.approx(
            table.energy_saving("hikey970", "etrade"), abs=1e-6
        )

    def test_noise_perturbs_but_preserves_mean(self, table):
        profiler = PowerProfiler(table=table, noise_std_w=0.05, seed=1)
        comparison = profiler.profile_schedules("pixel2", "zoom")
        mean = comparison.corunning.mean_power_w
        assert mean == pytest.approx(table.corun_power("pixel2", "zoom"), rel=0.05)

    def test_profile_device_covers_all_apps(self, table):
        profiler = PowerProfiler(table=table)
        comparisons = profiler.profile_device("nexus6p")
        assert {c.app for c in comparisons} == set(table.apps("nexus6p"))

    def test_analytical_source_produces_positive_saving_on_big_little(self):
        profiler = PowerProfiler(source="analytical", noise_std_w=0.0)
        comparison = profiler.profile_schedules("pixel2", "news")
        assert comparison.saving_fraction() > 0.0

    def test_unknown_app_rejected(self, table):
        profiler = PowerProfiler(table=table)
        with pytest.raises(KeyError):
            profiler.profile_schedules("pixel2", "fortnite")

    def test_invalid_source_rejected(self):
        with pytest.raises(ValueError):
            PowerProfiler(source="oracle")

    def test_traces_have_requested_length(self, table):
        """Each profiled run holds one power sample per second it lasts."""
        comparison = PowerProfiler(table=table).profile_schedules("pixel2", "zoom")
        assert len(comparison.training_separate.power_trace_w) == round(
            table.training_time("pixel2")
        )
        for run in (comparison.app_separate, comparison.corunning):
            assert len(run.power_trace_w) == round(table.corun_time("pixel2", "zoom"))

"""Tests for the Eq. (10) power model and the reference loop's power dispatch and accountant."""

import pytest

from reference_loop import DeviceState, EnergyAccountant, power
from repro.energy.power_model import EnergyBreakdown, PowerModel


@pytest.fixture()
def model(table):
    return PowerModel(table=table)


class TestPowerLevels:
    def test_idle_power(self, model, table):
        for device in table.devices():
            assert power(model, device, DeviceState.IDLE) == table.idle_power(device)

    def test_training_power(self, model, table):
        for device in table.devices():
            assert power(model, device, DeviceState.TRAINING_ONLY) == table.training_power(device)

    def test_app_power_specific(self, model, table):
        assert power(model, "pixel2", DeviceState.APP_ONLY, "tiktok") == table.app_power(
            "pixel2", "tiktok"
        )

    def test_corun_power_specific(self, model, table):
        assert power(model, "pixel2", DeviceState.CORUNNING, "zoom") == table.corun_power(
            "pixel2", "zoom"
        )

    def test_app_power_defaults_to_mean(self, model, table):
        mean = sum(table.app_power("pixel2", a) for a in table.apps("pixel2")) / len(
            table.apps("pixel2")
        )
        assert model.app_power("pixel2") == pytest.approx(mean)

    def test_corun_power_defaults_to_mean(self, model, table):
        mean = sum(table.corun_power("hikey970", a) for a in table.apps("hikey970")) / len(
            table.apps("hikey970")
        )
        assert model.corun_power("hikey970") == pytest.approx(mean)

    def test_eq10_ordering_on_heterogeneous_devices(self, model):
        """P_a' > P_a > P_b > P_d holds on average for Pixel2 (Section V)."""
        device = "pixel2"
        assert model.corun_power(device) > model.app_power(device)
        assert model.app_power(device) > model.training_power(device)
        assert model.training_power(device) > model.idle_power(device)

    def test_unknown_state_rejected(self, model):
        with pytest.raises(ValueError):
            power(model, "pixel2", "unplugged")  # type: ignore[arg-type]


class TestSchedulerOverhead:
    def test_overhead_disabled_by_default(self, model):
        idle = power(model, "pixel2", DeviceState.IDLE, deciding=True)
        assert idle == model.idle_power("pixel2")

    def test_overhead_enabled(self, table):
        model = PowerModel(table=table)
        deciding = power(
            model, "pixel2", DeviceState.IDLE, deciding=True, include_scheduler_overhead=True
        )
        assert deciding == table.overhead_power("pixel2")
        assert power(
            model, "pixel2", DeviceState.IDLE, deciding=False, include_scheduler_overhead=True
        ) == table.idle_power("pixel2")

    def test_knapsack_saving_term(self, model, table):
        """s_i = P_b + P_a - P_a' matches the Table II components."""
        value = model.expected_corun_saving_power("pixel2", "map")
        expected = (
            table.training_power("pixel2")
            + table.app_power("pixel2", "map")
            - table.corun_power("pixel2", "map")
        )
        assert value == pytest.approx(expected)


class TestEnergyAccountant:
    def test_records_by_state(self):
        accountant = EnergyAccountant()
        accountant.record(0, DeviceState.IDLE, 1.0)
        accountant.record(0, DeviceState.TRAINING_ONLY, 2.0)
        accountant.record(0, DeviceState.CORUNNING, 3.0)
        accountant.record(1, DeviceState.APP_ONLY, 4.0)
        breakdown = accountant.user_breakdown(0)
        assert breakdown.idle_j == 1.0
        assert breakdown.training_j == 2.0
        assert breakdown.corunning_j == 3.0
        assert accountant.user_breakdown(1).app_j == 4.0
        assert accountant.total_j() == pytest.approx(10.0)
        assert accountant.total_kj() == pytest.approx(0.01)

    def test_training_related_energy(self):
        accountant = EnergyAccountant()
        accountant.record(0, DeviceState.TRAINING_ONLY, 5.0)
        accountant.record(0, DeviceState.CORUNNING, 7.0)
        accountant.record(0, DeviceState.IDLE, 100.0)
        assert accountant.training_related_j() == pytest.approx(12.0)

    def test_overhead_recorded_separately(self):
        accountant = EnergyAccountant()
        accountant.record(0, DeviceState.IDLE, 1.0, overhead_j=0.25)
        assert accountant.user_breakdown(0).overhead_j == pytest.approx(0.25)
        assert accountant.total_j() == pytest.approx(1.25)

    def test_negative_energy_rejected(self):
        accountant = EnergyAccountant()
        with pytest.raises(ValueError):
            accountant.record(0, DeviceState.IDLE, -1.0)

    def test_per_slot_totals_monotone(self):
        accountant = EnergyAccountant()
        for i in range(5):
            accountant.record(0, DeviceState.IDLE, 1.0)
            accountant.close_slot()
        totals = accountant.per_slot_totals()
        assert totals == sorted(totals)
        assert totals[-1] == pytest.approx(5.0)

    def test_breakdown_total(self):
        breakdown = EnergyBreakdown(idle_j=1, app_j=2, training_j=3, corunning_j=4, overhead_j=0.5)
        assert breakdown.total_j() == pytest.approx(10.5)
        assert breakdown.total_kj() == pytest.approx(0.0105)

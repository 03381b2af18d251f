"""Tests for the reference loop's device runtime, the thermal model and the FPS generator."""

import pytest

from reference_loop import DeviceState, MobileDevice
from repro.device.apps import APP_CATALOG, ForegroundApp
from repro.device.fps import FpsTraceGenerator
from repro.device.models import DEVICE_CATALOG
from repro.device.thermal import ThermalModel
from repro.energy.power_model import PowerModel


@pytest.fixture()
def pixel2():
    return MobileDevice(user_id=0, spec=DEVICE_CATALOG["pixel2"], slot_seconds=1.0)


@pytest.fixture()
def power_model(table):
    return PowerModel(table=table)


def _app(name="news", arrival=0, duration=50):
    return ForegroundApp(spec=APP_CATALOG[name], arrival_slot=arrival, duration_slots=duration)


class TestDeviceStateMachine:
    def test_initial_state_is_idle(self, pixel2):
        assert pixel2.state() is DeviceState.IDLE
        assert pixel2.available

    def test_app_only_state(self, pixel2):
        pixel2.launch_app(_app())
        assert pixel2.state() is DeviceState.APP_ONLY
        assert pixel2.available  # an app does not block training

    def test_training_only_state(self, pixel2):
        pixel2.start_training(slot=0, model_version=0)
        assert pixel2.state() is DeviceState.TRAINING_ONLY
        assert not pixel2.available

    def test_corunning_state(self, pixel2):
        pixel2.launch_app(_app())
        pixel2.start_training(slot=0, model_version=0)
        assert pixel2.state() is DeviceState.CORUNNING

    def test_cannot_launch_two_apps(self, pixel2):
        pixel2.launch_app(_app())
        with pytest.raises(RuntimeError):
            pixel2.launch_app(_app("zoom"))

    def test_cannot_start_two_jobs(self, pixel2):
        pixel2.start_training(slot=0, model_version=0)
        with pytest.raises(RuntimeError):
            pixel2.start_training(slot=1, model_version=0)

    def test_training_duration_matches_table(self, pixel2, table):
        assert pixel2.training_duration_slots() == round(table.training_time("pixel2"))

    def test_app_expires_during_step(self, pixel2, power_model):
        pixel2.launch_app(_app(duration=3))
        for slot in range(3):
            pixel2.step(slot, power_model)
        outcome = pixel2.step(3, power_model)
        assert outcome.state is DeviceState.IDLE
        assert pixel2.current_app is None


class TestDeviceEnergyAndProgress:
    def test_training_completes_after_duration(self, pixel2, power_model):
        pixel2.start_training(slot=0, model_version=0)
        duration = pixel2.training_duration_slots()
        finished = []
        for slot in range(duration + 5):
            outcome = pixel2.step(slot, power_model)
            if outcome.training_finished:
                finished.append(slot)
        assert finished == [duration - 1]
        assert pixel2.completed_jobs == 1
        assert pixel2.available

    def test_intensive_corunning_slows_training(self, power_model):
        """Observation 2: a game extends the training time by >= 10%."""
        fast = MobileDevice(0, DEVICE_CATALOG["pixel2"])
        slow = MobileDevice(1, DEVICE_CATALOG["pixel2"])
        slow.launch_app(_app("candycrush", duration=10_000))
        fast.start_training(0, 0)
        slow.start_training(0, 0)

        def finish_slot(device):
            for slot in range(3000):
                if device.step(slot, power_model).training_finished:
                    return slot
            raise AssertionError("training never finished")

        fast_done = finish_slot(fast)
        slow_done = finish_slot(slow)
        assert slow_done >= fast_done * 1.08

    def test_energy_accumulates_at_correct_power(self, pixel2, power_model, table):
        for slot in range(10):
            pixel2.step(slot, power_model)
        assert pixel2.total_energy_j == pytest.approx(10 * table.idle_power("pixel2"))

    def test_corunning_energy_uses_corun_level(self, power_model, table):
        device = MobileDevice(0, DEVICE_CATALOG["hikey970"])
        device.launch_app(_app("zoom", duration=5))
        device.start_training(0, 0)
        outcome = device.step(0, power_model)
        assert outcome.energy_j == pytest.approx(table.corun_power("hikey970", "zoom"))

    def test_utilization_summary_sums_to_one(self, pixel2, power_model):
        pixel2.launch_app(_app(duration=5))
        for slot in range(20):
            pixel2.step(slot, power_model)
        summary = pixel2.utilization_summary()
        assert sum(summary.values()) == pytest.approx(1.0)
        assert summary["app_only"] > 0.0

    def test_invalid_slot_seconds(self):
        with pytest.raises(ValueError):
            MobileDevice(0, DEVICE_CATALOG["pixel2"], slot_seconds=0.0)


class TestThermalModel:
    def test_heats_towards_target(self):
        thermal = ThermalModel(DEVICE_CATALOG["pixel2"], ambient_c=25.0)
        for _ in range(600):
            thermal.step(power_w=8.0, dt_s=1.0)
        assert thermal.state.temperature_c > 40.0

    def test_idle_device_stays_cool(self):
        thermal = ThermalModel(DEVICE_CATALOG["pixel2"], ambient_c=25.0)
        for _ in range(600):
            thermal.step(power_w=0.5, dt_s=1.0)
        assert not thermal.state.throttled

    def test_throttling_raises_slowdown(self):
        thermal = ThermalModel(DEVICE_CATALOG["pixel2"], throttle_temp_c=30.0)
        for _ in range(600):
            thermal.step(power_w=10.0, dt_s=1.0)
        assert thermal.state.throttled
        assert thermal.training_slowdown() > 1.0

    def test_homogeneous_device_has_extra_contention(self):
        hetero = ThermalModel(DEVICE_CATALOG["pixel2"])
        homog = ThermalModel(DEVICE_CATALOG["nexus6"])
        game = APP_CATALOG["candycrush"]
        assert homog.training_slowdown(game) > hetero.training_slowdown(game)

    def test_reset(self):
        thermal = ThermalModel(DEVICE_CATALOG["pixel2"])
        thermal.step(power_w=10.0, dt_s=100.0)
        thermal.reset()
        assert thermal.state.temperature_c == pytest.approx(25.0)

    def test_invalid_inputs(self):
        thermal = ThermalModel(DEVICE_CATALOG["pixel2"])
        with pytest.raises(ValueError):
            thermal.step(power_w=-1.0)
        with pytest.raises(ValueError):
            thermal.step(power_w=1.0, dt_s=0.0)
        with pytest.raises(ValueError):
            ThermalModel(DEVICE_CATALOG["pixel2"], tau_s=0.0)


class TestFpsTraces:
    def test_mean_fps_close_to_nominal(self):
        generator = FpsTraceGenerator.for_app_name("angrybird", seed=0)
        trace = generator.trace(200, corunning=False)
        assert FpsTraceGenerator.mean_fps(trace) == pytest.approx(60.0, abs=3.0)

    def test_corunning_degradation_is_negligible(self):
        """Observation 3: co-running does not noticeably reduce FPS."""
        generator = FpsTraceGenerator.for_app_name("tiktok", seed=1)
        alone = generator.trace(200, corunning=False)
        corun = generator.trace(200, corunning=True)
        degradation = FpsTraceGenerator.relative_degradation(alone, corun)
        assert degradation < 0.10

    def test_trace_length_and_nonnegative(self):
        generator = FpsTraceGenerator.for_app_name("zoom", seed=2)
        trace = generator.trace(50)
        assert len(trace) == 50
        assert all(sample.fps >= 0.0 for sample in trace)

    def test_unknown_app(self):
        with pytest.raises(KeyError):
            FpsTraceGenerator.for_app_name("fortnite")

    def test_invalid_duration(self):
        generator = FpsTraceGenerator.for_app_name("zoom")
        with pytest.raises(ValueError):
            generator.trace(0)

    def test_empty_trace_mean_rejected(self):
        with pytest.raises(ValueError):
            FpsTraceGenerator.mean_fps([])

"""Tests for the device catalog, application catalog and CPU model."""

import numpy as np
import pytest

from repro.device.apps import APP_CATALOG, AppIntensity, ForegroundApp
from repro.device.cpu import (
    BigLittleCpu,
    CpuLoad,
    INTENSIVE_APP_LOAD,
    LIGHT_APP_LOAD,
    TRAINING_LOAD,
    load_for_intensity,
)
from repro.device.models import DEVICE_CATALOG, build_device_fleet, require_device

from oracle import is_running, sample_app


class TestDeviceCatalog:
    def test_four_testbed_devices(self):
        assert set(DEVICE_CATALOG) == {"nexus6", "nexus6p", "hikey970", "pixel2"}

    def test_nexus6_is_homogeneous(self):
        spec = DEVICE_CATALOG["nexus6"]
        assert not spec.heterogeneous
        assert spec.big_cores == 0

    def test_big_little_devices_have_both_clusters(self):
        for name in ("nexus6p", "hikey970", "pixel2"):
            spec = DEVICE_CATALOG[name]
            assert spec.heterogeneous
            assert spec.big_cores > 0 and spec.little_cores > 0

    def test_background_cpuset_matches_paper(self):
        """Pixel2 exposes two little cores to background services; the others one."""
        assert DEVICE_CATALOG["pixel2"].background_cpus == 2
        assert DEVICE_CATALOG["nexus6p"].background_cpus == 1
        assert DEVICE_CATALOG["hikey970"].background_cpus == 1

    def test_power_fields_match_measurements(self, table):
        for name, spec in DEVICE_CATALOG.items():
            assert spec.training_power_w == table.training_power(name)
            assert spec.training_time_s == table.training_time(name)
            assert spec.idle_power_w == table.idle_power(name)

    def test_dev_board_flag(self):
        assert DEVICE_CATALOG["hikey970"].is_dev_board()
        assert not DEVICE_CATALOG["pixel2"].is_dev_board()

    def test_require_device_unknown(self):
        with pytest.raises(KeyError):
            require_device("galaxy")


class TestFleetBuilding:
    def test_uniform_fleet_size(self, rng):
        fleet = build_device_fleet(40, rng)
        assert len(fleet) == 40
        assert {spec.name for spec in fleet} <= set(DEVICE_CATALOG)

    def test_explicit_names(self, rng):
        fleet = build_device_fleet(3, rng, names=["pixel2", "pixel2", "nexus6"])
        assert [s.name for s in fleet] == ["pixel2", "pixel2", "nexus6"]

    def test_explicit_names_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            build_device_fleet(2, rng, names=["pixel2"])

    def test_mix_is_respected(self, rng):
        fleet = build_device_fleet(200, rng, mix={"pixel2": 1.0})
        assert all(spec.name == "pixel2" for spec in fleet)

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            build_device_fleet(0, rng)
        with pytest.raises(KeyError):
            build_device_fleet(5, rng, mix={"iphone": 1.0})
        with pytest.raises(ValueError):
            build_device_fleet(5, rng, mix={"pixel2": 0.0})

    def test_fleet_is_deterministic_per_seed(self):
        fleet_a = build_device_fleet(30, np.random.default_rng(5))
        fleet_b = build_device_fleet(30, np.random.default_rng(5))
        assert [s.name for s in fleet_a] == [s.name for s in fleet_b]


class TestAppCatalog:
    def test_eight_apps(self):
        assert len(APP_CATALOG) == 8

    def test_games_are_intensive(self):
        assert APP_CATALOG["candycrush"].intensity is AppIntensity.INTENSIVE
        assert APP_CATALOG["angrybird"].intensity is AppIntensity.INTENSIVE

    def test_light_apps_do_not_slow_training(self):
        assert APP_CATALOG["news"].training_slowdown == pytest.approx(1.0)
        assert APP_CATALOG["etrade"].training_slowdown == pytest.approx(1.0)

    def test_intensive_apps_slow_training_10_to_15_percent(self):
        """Observation 2: gaming apps slow training by about 10-15%."""
        for name in ("candycrush", "angrybird"):
            assert 1.10 <= APP_CATALOG[name].training_slowdown <= 1.15

    def test_video_apps_run_at_30fps(self):
        assert APP_CATALOG["tiktok"].nominal_fps == pytest.approx(30.0)
        assert APP_CATALOG["youtube"].nominal_fps == pytest.approx(30.0)

    def test_foreground_app_lifetime(self):
        app = ForegroundApp(spec=APP_CATALOG["zoom"], arrival_slot=10, duration_slots=5)
        assert is_running(app, 10) and is_running(app, 14)
        assert not is_running(app, 9) and not is_running(app, 15)
        assert app.end_slot() == 15

    def test_sample_app_uniform(self, rng):
        names = {sample_app(rng).name for _ in range(200)}
        assert names == set(APP_CATALOG)

    def test_sample_app_weighted(self, rng):
        spec = sample_app(rng, names=["zoom", "news"], weights=[1.0, 0.0])
        assert spec.name == "zoom"

    def test_sample_app_invalid(self, rng):
        with pytest.raises(KeyError):
            sample_app(rng, names=["fortnite"])
        with pytest.raises(ValueError):
            sample_app(rng, names=["zoom"], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            sample_app(rng, names=["zoom", "news"], weights=[0.0, 0.0])


class TestBigLittleCpu:
    def test_power_increases_with_utilization(self):
        cpu = BigLittleCpu(DEVICE_CATALOG["pixel2"])
        low = cpu.power(CpuLoad(big_utilization=0.1, little_utilization=0.1, memory_intensity=0.1))
        high = cpu.power(CpuLoad(big_utilization=0.9, little_utilization=0.9, memory_intensity=0.9))
        assert high > low

    def test_memory_power_saturates(self):
        cpu = BigLittleCpu(DEVICE_CATALOG["pixel2"])
        first_half = cpu.memory_power(0.5) - cpu.memory_power(0.0)
        second_half = cpu.memory_power(1.0) - cpu.memory_power(0.5)
        assert second_half < first_half

    def test_corun_saving_positive_on_big_little(self):
        cpu = BigLittleCpu(DEVICE_CATALOG["pixel2"])
        saving = cpu.corun_saving(LIGHT_APP_LOAD, training_time_s=220.0, app_time_s=200.0)
        assert saving > 0.0

    def test_corun_saving_worse_on_homogeneous_cpu(self):
        """The Nexus 6's single cluster erodes (or reverses) the discount."""
        hetero = BigLittleCpu(DEVICE_CATALOG["pixel2"])
        homog = BigLittleCpu(DEVICE_CATALOG["nexus6"])
        s_hetero = hetero.corun_saving(INTENSIVE_APP_LOAD, 220.0, 200.0)
        s_homog = homog.corun_saving(INTENSIVE_APP_LOAD, 204.0, 200.0)
        assert s_homog < s_hetero

    def test_idle_below_training_below_corun(self):
        cpu = BigLittleCpu(DEVICE_CATALOG["hikey970"])
        assert cpu.idle_power() < cpu.training_power() < cpu.corun_power(INTENSIVE_APP_LOAD)

    def test_combined_load_clamps(self):
        combined = TRAINING_LOAD.combined(INTENSIVE_APP_LOAD)
        assert combined.little_utilization <= 1.0
        assert combined.memory_intensity <= 1.0

    def test_invalid_utilization_rejected(self):
        cpu = BigLittleCpu(DEVICE_CATALOG["pixel2"])
        with pytest.raises(ValueError):
            cpu.power(CpuLoad(big_utilization=1.5))
        with pytest.raises(ValueError):
            cpu.memory_power(-0.1)

    def test_load_for_intensity(self):
        assert load_for_intensity("light") is LIGHT_APP_LOAD
        with pytest.raises(KeyError):
            load_for_intensity("extreme")

"""Software power profiler (the Trepn / Snapdragon Profiler / Monsoon analog).

Section VII.A of the paper measures the schedules of Fig. 1 with a mix of
software profilers and a Monsoon power monitor.  This module plays that role
for the simulated devices: given a device and an application, it "measures"
the three schedules of Fig. 1 —

* training as a separate background service,
* the application running separately,
* training and application co-running —

and returns per-schedule energy (J) plus a per-second power trace with
measurement noise, so that the Fig. 1 benchmark and the preliminary-
experiment example have the same artefacts as the paper.

Two measurement sources are supported:

``"table"`` (default)
    Draw the mean power levels from the Table II calibration data — this is
    what the rest of the library uses, and reproduces Table II exactly up to
    the injected sampling noise.

``"analytical"``
    Derive the power levels from the :class:`repro.device.cpu.BigLittleCpu`
    microarchitectural model — useful for devices outside the calibration
    set and for illustrating *why* the discount exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.energy.measurements import MeasurementTable

__all__ = ["ProfiledRun", "ScheduleComparison", "PowerProfiler"]


@dataclass
class ProfiledRun:
    """One profiled execution of a single schedule.

    Attributes:
        label: schedule label (``"training_separate"``, ``"app_separate"``,
            ``"corunning"``).
        duration_s: execution time in seconds.
        mean_power_w: average power over the run.
        energy_j: integrated energy.
        power_trace_w: one sample per second, with measurement noise.
    """

    label: str
    duration_s: float
    mean_power_w: float
    energy_j: float
    power_trace_w: List[float] = field(default_factory=list)


@dataclass
class ScheduleComparison:
    """Fig. 1-style comparison of separate vs co-running schedules."""

    device: str
    app: str
    training_separate: ProfiledRun
    app_separate: ProfiledRun
    corunning: ProfiledRun

    def separate_energy_j(self) -> float:
        """Total energy of the separate schedule (training + app)."""
        return self.training_separate.energy_j + self.app_separate.energy_j

    def corun_energy_j(self) -> float:
        """Total energy of the co-running schedule."""
        return self.corunning.energy_j

    def saving_fraction(self) -> float:
        """Fractional energy saving of co-running over separate execution."""
        return 1.0 - self.corun_energy_j() / self.separate_energy_j()


class PowerProfiler:
    """Measure simulated schedules the way the paper's profilers would.

    Args:
        table: calibration table (Table II/III data by default).
        noise_std_w: standard deviation of the per-sample measurement noise,
            as a fraction of the mean power.
        seed: RNG seed for the noise.
        source: ``"table"`` or ``"analytical"`` (see module docstring).
    """

    def __init__(
        self,
        table: Optional[MeasurementTable] = None,
        noise_std_w: float = 0.03,
        seed: int = 0,
        source: str = "table",
    ) -> None:
        if source not in ("table", "analytical"):
            raise ValueError("source must be 'table' or 'analytical'")
        self.table = table or MeasurementTable()
        self.noise_std_w = noise_std_w
        self.source = source
        self._rng = np.random.default_rng(seed)

    # -- internal helpers -------------------------------------------------------

    def _power_levels(self, device: str, app: str) -> Dict[str, float]:
        """Return (training, app, corun) power levels for the chosen source."""
        if self.source == "table":
            return {
                "training": self.table.training_power(device),
                "app": self.table.app_power(device, app),
                "corun": self.table.corun_power(device, app),
            }
        # Imported lazily: the energy layer sits below the device layer, so
        # the analytical path pulls the device models in only when used.
        from repro.device.apps import APP_CATALOG
        from repro.device.cpu import BigLittleCpu, load_for_intensity
        from repro.device.models import require_device

        spec = require_device(device)
        cpu = BigLittleCpu(spec)
        app_spec = APP_CATALOG[app]
        load = load_for_intensity(app_spec.intensity.value)
        return {
            "training": cpu.training_power(),
            "app": cpu.app_power(load),
            "corun": cpu.corun_power(load),
        }

    def _run(self, label: str, mean_power_w: float, duration_s: float) -> ProfiledRun:
        samples = max(1, int(round(duration_s)))
        noise = self._rng.normal(0.0, self.noise_std_w * mean_power_w, size=samples)
        trace = np.clip(mean_power_w + noise, 0.0, None)
        energy = float(np.sum(trace) * (duration_s / samples))
        return ProfiledRun(
            label=label,
            duration_s=duration_s,
            mean_power_w=float(np.mean(trace)),
            energy_j=energy,
            power_trace_w=[float(p) for p in trace],
        )

    # -- public API -------------------------------------------------------------

    def profile_schedules(self, device: str, app: str) -> ScheduleComparison:
        """Profile the three Fig. 1 schedules for ``(device, app)``."""
        if app not in self.table.apps(device):
            raise KeyError(
                f"unknown app {app!r} for device {device!r}; known: {sorted(self.table.apps(device))}"
            )
        levels = self._power_levels(device, app)
        training_time = self.table.training_time(device)
        app_time = self.table.corun_time(device, app)
        return ScheduleComparison(
            device=device,
            app=app,
            training_separate=self._run("training_separate", levels["training"], training_time),
            app_separate=self._run("app_separate", levels["app"], app_time),
            corunning=self._run("corunning", levels["corun"], app_time),
        )

    def profile_device(self, device: str) -> List[ScheduleComparison]:
        """Profile every catalog application on ``device`` (one Fig. 1 panel)."""
        return [self.profile_schedules(device, app) for app in self.table.apps(device)]

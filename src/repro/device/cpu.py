"""big.LITTLE CPU model and the analytical co-running energy discount.

The scheduler itself only consumes the measured power levels of Table II, but
the paper's *explanation* of the discount (Section III.A, Observation 1) is
microarchitectural: the little cores running the background training keep the
shared memory subsystem in an elevated power state, so adding a foreground
application on the big cores raises system power by much less than running
the application on an otherwise-idle device.

This module provides an analytical model of that effect.  It serves two
purposes:

* the software power profiler (:mod:`repro.energy.profiler`) uses it to
  produce Fig. 1-style component breakdowns and utilisation traces, and
* it lets users explore hypothetical devices that are not in the Table II
  calibration set.

The model decomposes device power into a baseline (rails, screen, memory at
idle), per-cluster dynamic power proportional to utilisation x frequency^2
(a standard CMOS approximation), and a shared-memory term that saturates —
this saturation is what produces the co-running discount.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.device.models import DeviceSpec

__all__ = ["CoreCluster", "CpuLoad", "BigLittleCpu"]


@dataclass
class CoreCluster:
    """One cluster of identical cores.

    Attributes:
        name: ``"big"`` or ``"little"``.
        cores: number of cores in the cluster.
        freq_ghz: operating frequency.
        dynamic_coeff_w: dynamic power (W) of one fully-utilised core at
            1 GHz; scaled by ``freq_ghz ** 2``.
        static_power_w: leakage/static power of the powered-on cluster.
    """

    name: str
    cores: int
    freq_ghz: float
    dynamic_coeff_w: float
    static_power_w: float

    def power(self, utilization: float) -> float:
        """Cluster power at the given average per-core utilisation in [0, 1]."""
        if not 0.0 <= utilization <= 1.0:
            raise ValueError("utilization must be within [0, 1]")
        if self.cores == 0:
            return 0.0
        dynamic = self.dynamic_coeff_w * self.cores * utilization * self.freq_ghz**2
        return self.static_power_w + dynamic


@dataclass
class CpuLoad:
    """Utilisation placed on the two clusters by the current workload mix.

    The paper observes ~95-98% little-core utilisation while training and
    30-50% big-core utilisation for foreground apps (Observation 1).
    """

    big_utilization: float = 0.0
    little_utilization: float = 0.0
    memory_intensity: float = 0.0

    def combined(self, other: "CpuLoad") -> "CpuLoad":
        """Superpose two workloads, clamping utilisation at 1."""
        return CpuLoad(
            big_utilization=min(1.0, self.big_utilization + other.big_utilization),
            little_utilization=min(
                1.0, self.little_utilization + other.little_utilization
            ),
            memory_intensity=min(1.0, self.memory_intensity + other.memory_intensity),
        )


#: Canonical workload profiles used by the profiler.
TRAINING_LOAD = CpuLoad(big_utilization=0.02, little_utilization=0.96, memory_intensity=0.70)
LIGHT_APP_LOAD = CpuLoad(big_utilization=0.30, little_utilization=0.05, memory_intensity=0.25)
MODERATE_APP_LOAD = CpuLoad(big_utilization=0.40, little_utilization=0.08, memory_intensity=0.40)
INTENSIVE_APP_LOAD = CpuLoad(big_utilization=0.55, little_utilization=0.12, memory_intensity=0.55)


class BigLittleCpu:
    """Analytical power model of an asymmetric multi-core CPU.

    Args:
        spec: device description from the catalog.
        baseline_power_w: always-on power (rails, display at training-time
            brightness, radios); defaults to the device's Table III idle power.
        memory_power_w: maximum power of the shared memory subsystem.
        big_dynamic_coeff_w: per-core dynamic coefficient of the big cluster.
        little_dynamic_coeff_w: per-core dynamic coefficient of the little
            cluster (little cores are substantially more efficient).
        contention_penalty_w: extra power burned when both workloads compete
            for the *same* cluster (the homogeneous Nexus 6 case).
    """

    def __init__(
        self,
        spec: DeviceSpec,
        baseline_power_w: Optional[float] = None,
        memory_power_w: float = 1.2,
        big_dynamic_coeff_w: float = 0.45,
        little_dynamic_coeff_w: float = 0.12,
        contention_penalty_w: float = 0.6,
    ) -> None:
        self.spec = spec
        self.baseline_power_w = (
            spec.idle_power_w if baseline_power_w is None else baseline_power_w
        )
        self.memory_power_w = memory_power_w
        self.contention_penalty_w = contention_penalty_w
        if spec.heterogeneous:
            self.big = CoreCluster(
                "big", spec.big_cores, spec.big_freq_ghz, big_dynamic_coeff_w, 0.05
            )
            self.little = CoreCluster(
                "little", spec.little_cores, spec.little_freq_ghz,
                little_dynamic_coeff_w, 0.03,
            )
        else:
            # Homogeneous device: all cores behave like (power-hungry) big cores.
            self.big = CoreCluster(
                "big", spec.little_cores, spec.little_freq_ghz, big_dynamic_coeff_w, 0.05
            )
            self.little = CoreCluster("little", 0, 0.0, little_dynamic_coeff_w, 0.0)

    # -- power --------------------------------------------------------------

    def memory_power(self, memory_intensity: float) -> float:
        """Shared-memory power; saturating in the combined memory intensity.

        The saturation (modelled as a concave ``x / (x + 0.35)`` curve) is the
        source of the co-running discount: once training has pulled the
        memory system to a high power state, the incremental cost of the
        foreground app's memory traffic is small.
        """
        if not 0.0 <= memory_intensity <= 1.0:
            raise ValueError("memory_intensity must be within [0, 1]")
        return self.memory_power_w * memory_intensity / (memory_intensity + 0.35)

    def power(self, load: CpuLoad) -> float:
        """Total device power (W) under ``load``."""
        total = self.baseline_power_w
        total += self.big.power(load.big_utilization)
        total += self.little.power(load.little_utilization)
        total += self.memory_power(load.memory_intensity)
        if not self.spec.heterogeneous:
            # Contention on the single shared cluster.
            overlap = min(load.big_utilization, load.little_utilization)
            total += self.contention_penalty_w * overlap
        return total

    # -- schedule-level energies --------------------------------------------

    def corun_power(self, app_load: CpuLoad) -> float:
        """Power while co-running training with a foreground app."""
        if self.spec.heterogeneous:
            combined = TRAINING_LOAD.combined(app_load)
            return self.power(combined)
        # Homogeneous CPU: both workloads land on the same cluster.
        combined = CpuLoad(
            big_utilization=min(
                1.0, TRAINING_LOAD.little_utilization + app_load.big_utilization
            ),
            little_utilization=0.0,
            memory_intensity=min(
                1.0, TRAINING_LOAD.memory_intensity + app_load.memory_intensity
            ),
        )
        return self.power(combined) + self.contention_penalty_w

    def training_power(self) -> float:
        """Power while training alone in the background."""
        if self.spec.heterogeneous:
            return self.power(TRAINING_LOAD)
        solo = CpuLoad(
            big_utilization=TRAINING_LOAD.little_utilization,
            little_utilization=0.0,
            memory_intensity=TRAINING_LOAD.memory_intensity,
        )
        return self.power(solo)

    def app_power(self, app_load: CpuLoad) -> float:
        """Power while running only the foreground application."""
        return self.power(app_load)

    def idle_power(self) -> float:
        """Power of the idle device."""
        return self.power(CpuLoad())


def load_for_intensity(intensity: str) -> CpuLoad:
    """Map an :class:`~repro.device.apps.AppIntensity` value to a CPU load."""
    profiles: Dict[str, CpuLoad] = {
        "light": LIGHT_APP_LOAD,
        "moderate": MODERATE_APP_LOAD,
        "intensive": INTENSIVE_APP_LOAD,
    }
    if intensity not in profiles:
        raise KeyError(f"unknown intensity {intensity!r}")
    return profiles[intensity]

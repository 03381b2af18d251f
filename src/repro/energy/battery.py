"""Battery state-of-charge model.

The paper motivates energy minimisation by battery drain and battery-ageing
concerns on battery-powered devices (Section I).  The federated scheduler in
the paper gates participation on "battery energy conditions" (Section III.B
and VI: the Android ``JobScheduler`` can require the device to be charging or
above a charge threshold).  This module provides the small battery substrate
those conditions need: the per-device battery parameters and initial
state of charge.

The charge, discharge and participation rules run as array kernels over
the whole fleet (:mod:`repro.sim.fleet`), which reads these fields into its
columns.  Their scalar form, one battery at a time, is the reference loop's
(``tests/reference_loop.py``); mirror any change to the charging semantics
in both (the equivalence tests compare end-of-run SoC bit for bit).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Battery"]


@dataclass
class Battery:
    """A simple coulomb-counting battery model.

    Attributes:
        capacity_j: usable energy capacity in joules (a 3000 mAh / 3.85 V
            phone battery is roughly 41.6 kJ).
        charge_j: current stored energy in joules.
        nominal_voltage: nominal pack voltage.
        charge_rate_w: charging power when plugged in.
        min_participation_soc: state-of-charge threshold below which the
            device refuses to start training (the JobScheduler condition).
        cycle_energy_j: cumulative discharged energy, used to count
            equivalent full cycles for the ageing metric.
    """

    capacity_j: float = 41_600.0
    charge_j: float = 41_600.0
    nominal_voltage: float = 3.85
    charge_rate_w: float = 10.0
    min_participation_soc: float = 0.2
    cycle_energy_j: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_j <= 0:
            raise ValueError("capacity_j must be positive")
        if not 0.0 <= self.charge_j <= self.capacity_j:
            raise ValueError("charge_j must be within [0, capacity_j]")
        if not 0.0 <= self.min_participation_soc <= 1.0:
            raise ValueError("min_participation_soc must be within [0, 1]")

    @property
    def soc(self) -> float:
        """State of charge in [0, 1]."""
        return self.charge_j / self.capacity_j

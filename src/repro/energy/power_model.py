"""The per-slot power function of Eq. (10) and system-wide energy accounting.

Eq. (10) of the paper assigns one of four power levels to a device in each
time slot depending on the control decision and the application status::

    P_i(t) = P_a'  if training co-runs with a foreground application
           = P_b   if training runs alone in the background
           = P_a   if only the foreground application runs
           = P_d   if the device idles

with ``P_a' > P_a > P_b > P_d`` on big.LITTLE devices.  The levels come from
the Table II/III calibration data (:class:`repro.energy.measurements.MeasurementTable`);
application-specific levels are used when the application is known, otherwise
the across-app average is used.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional

import numpy as np

from repro.columns import ordered_sum
from repro.energy.measurements import MeasurementTable

__all__ = ["DeviceState", "PowerModel", "EnergyAccountant", "EnergyBreakdown"]


class DeviceState(str, Enum):
    """Instantaneous activity state of a device — the four cases of Eq. (10).

    Defined here (the lowest layer) because both the power model and the
    device runtime need it; :mod:`repro.device.device` re-exports it.
    """

    IDLE = "idle"
    APP_ONLY = "app_only"
    TRAINING_ONLY = "training_only"
    CORUNNING = "corunning"


class PowerModel:
    """Map (device, activity state, app) to an average power draw in watts.

    Args:
        table: measurement table to calibrate against (defaults to the
            paper's Table II / Table III numbers).
        include_scheduler_overhead: when ``True``, the Table III
            decision-computation power replaces the idle power in slots where
            the online controller evaluates its decision rule, so that the
            scheduling overhead shows up in the energy accounting.
    """

    def __init__(
        self,
        table: Optional[MeasurementTable] = None,
        include_scheduler_overhead: bool = False,
    ) -> None:
        self.table = table or MeasurementTable()
        self.include_scheduler_overhead = include_scheduler_overhead
        self._mean_app_power: Dict[str, float] = {}
        self._mean_corun_power: Dict[str, float] = {}
        for device in self.table.devices():
            apps = self.table.apps(device)
            self._mean_app_power[device] = sum(
                self.table.app_power(device, a) for a in apps
            ) / len(apps)
            self._mean_corun_power[device] = sum(
                self.table.corun_power(device, a) for a in apps
            ) / len(apps)

    # -- the four levels of Eq. (10) ------------------------------------------

    def idle_power(self, device: str) -> float:
        """``P_d``: idle power of ``device``."""
        return self.table.idle_power(device)

    def training_power(self, device: str) -> float:
        """``P_b``: background-training power of ``device``."""
        return self.table.training_power(device)

    def app_power(self, device: str, app: Optional[str] = None) -> float:
        """``P_a``: foreground-application power (app-specific or average)."""
        if app is None:
            return self._mean_app_power[device]
        return self.table.app_power(device, app)

    def corun_power(self, device: str, app: Optional[str] = None) -> float:
        """``P_a'``: co-running power (app-specific or average)."""
        if app is None:
            return self._mean_corun_power[device]
        return self.table.corun_power(device, app)

    def overhead_power(self, device: str) -> float:
        """Power while evaluating the online decision rule (Table III)."""
        return self.table.overhead_power(device)

    # -- Eq. (10) dispatch -------------------------------------------------------

    def power(
        self,
        device: str,
        state: DeviceState,
        app: Optional[str] = None,
        deciding: bool = False,
    ) -> float:
        """Return the power draw (W) for one slot.

        Args:
            device: canonical device name.
            state: activity state of the device during the slot.
            app: name of the running foreground application, if any.
            deciding: whether the online controller evaluated its decision
                rule in this slot (only affects idle slots, and only when the
                model was constructed with ``include_scheduler_overhead``).
        """
        if state is DeviceState.CORUNNING:
            return self.corun_power(device, app)
        if state is DeviceState.TRAINING_ONLY:
            return self.training_power(device)
        if state is DeviceState.APP_ONLY:
            return self.app_power(device, app)
        if state is DeviceState.IDLE:
            if deciding and self.include_scheduler_overhead:
                return self.overhead_power(device)
            return self.idle_power(device)
        raise ValueError(f"unknown device state: {state!r}")

    def energy_saving(self, device: str, app: str) -> float:
        """Co-running energy-saving fraction for ``(device, app)``."""
        return self.table.energy_saving(device, app)

    def expected_corun_saving_power(self, device: str, app: Optional[str] = None) -> float:
        """Per-slot power saved by co-running instead of separate execution.

        This is the ``s_i = P_b + P_a - P_a'`` quantity of the offline
        knapsack objective (Section IV).
        """
        return (
            self.training_power(device)
            + self.app_power(device, app)
            - self.corun_power(device, app)
        )


@dataclass
class EnergyBreakdown:
    """Energy (J) decomposed by activity state."""

    idle_j: float = 0.0
    app_j: float = 0.0
    training_j: float = 0.0
    corunning_j: float = 0.0
    overhead_j: float = 0.0

    def total_j(self) -> float:
        """Total energy across all states."""
        return self.idle_j + self.app_j + self.training_j + self.corunning_j + self.overhead_j

    def total_kj(self) -> float:
        """Total energy in kilojoules (the unit of Fig. 4/6)."""
        return self.total_j() / 1000.0


class EnergyAccountant:
    """Accumulate per-user and system-wide energy, broken down by state.

    The vectorized backend's :class:`repro.sim.fleet.FleetEnergyAccountant`
    mirrors this API over per-user arrays, including this class's reduction
    order (:meth:`total_j` is a left-to-right Python sum over users) —
    that order is part of the backends' bitwise-equivalence contract, so
    change both together.
    """

    def __init__(self) -> None:
        self._per_user: Dict[int, EnergyBreakdown] = defaultdict(EnergyBreakdown)
        self._per_slot_total: list = []
        self._running_total_j = 0.0
        self._slot_energy_j = 0.0

    def record(
        self,
        user_id: int,
        state: DeviceState,
        energy_j: float,
        overhead_j: float = 0.0,
    ) -> None:
        """Record one slot of energy for ``user_id``."""
        if energy_j < 0 or overhead_j < 0:
            raise ValueError("energy must be non-negative")
        breakdown = self._per_user[user_id]
        if state is DeviceState.IDLE:
            breakdown.idle_j += energy_j
        elif state is DeviceState.APP_ONLY:
            breakdown.app_j += energy_j
        elif state is DeviceState.TRAINING_ONLY:
            breakdown.training_j += energy_j
        elif state is DeviceState.CORUNNING:
            breakdown.corunning_j += energy_j
        else:
            raise ValueError(f"unknown device state: {state!r}")
        breakdown.overhead_j += overhead_j
        self._slot_energy_j += energy_j + overhead_j

    def close_slot(self) -> None:
        """Snapshot the running system-wide total at the end of a slot.

        The cumulative series is maintained incrementally — the slot's
        per-user energies are summed in user (recording) order and added to
        a running total, which is the same left-to-right reduction the fleet
        accountant performs on its arrays.
        """
        self._running_total_j += self._slot_energy_j
        self._per_slot_total.append(self._running_total_j)
        self._slot_energy_j = 0.0

    def user_breakdown(self, user_id: int) -> EnergyBreakdown:
        """Energy breakdown for one user."""
        return self._per_user[user_id]

    def total_j(self) -> float:
        """System-wide total energy in joules."""
        return ordered_sum(
            np.array([b.total_j() for b in self._per_user.values()], dtype=np.float64)
        )

    def total_kj(self) -> float:
        """System-wide total energy in kilojoules."""
        return self.total_j() / 1000.0

    def training_related_j(self) -> float:
        """Energy attributable to training (training-alone + co-running)."""
        return ordered_sum(
            np.array(
                [b.training_j + b.corunning_j for b in self._per_user.values()],
                dtype=np.float64,
            )
        )

    def per_slot_totals(self) -> list:
        """Cumulative system energy at the end of each recorded slot."""
        return list(self._per_slot_total)

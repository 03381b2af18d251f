"""The per-slot power levels of Eq. (10).

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

from typing import Dict, Optional

from repro.energy.measurements import MeasurementTable

__all__ = ["PowerModel"]


class PowerModel:
    """The four Eq. (10) power levels of each device (and app), in watts.

    Args:
        table: measurement table to calibrate against (defaults to the
            paper's Table II / Table III numbers).
    """

    def __init__(self, table: Optional[MeasurementTable] = None) -> None:
        self.table = table or MeasurementTable()
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

    def energy_saving(self, device: str, app: str) -> float:
        """Co-running energy-saving fraction for ``(device, app)``."""
        return self.table.energy_saving(device, app)

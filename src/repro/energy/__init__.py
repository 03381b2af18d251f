"""Energy substrate: power models, measurement tables, battery and profiler.

This subpackage reproduces the measurement layer of the paper (Section III.A,
Section VII.A).  The scheduler in :mod:`repro.core` consumes exactly four
power levels per device (Eq. 10 of the paper):

``P_a'``  co-running training with a foreground application,
``P_a``   running the foreground application alone,
``P_b``   running the training task alone in the background,
``P_d``   idling,

with ``P_a' > P_a > P_b > P_d`` on the heterogeneous big.LITTLE devices.
The calibration source is the paper's Table II (per-device, per-app average
power and execution time) and Table III (idle / decision-computation power).
"""

from repro.energy.battery import Battery
from repro.energy.measurements import (
    IDLE_POWER_W,
    MeasurementTable,
    OVERHEAD_POWER_W,
    TABLE_II,
    energy_saving_fraction,
)
from repro.energy.power_model import PowerModel
from repro.energy.profiler import PowerProfiler, ProfiledRun

__all__ = [
    "Battery",
    "IDLE_POWER_W",
    "MeasurementTable",
    "OVERHEAD_POWER_W",
    "PowerModel",
    "PowerProfiler",
    "ProfiledRun",
    "TABLE_II",
    "energy_saving_fraction",
]

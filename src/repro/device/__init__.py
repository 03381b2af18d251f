"""Mobile-device substrate: CPUs, device catalog, applications and FPS.

This subpackage models the hardware/OS layer the paper runs on: ARM
big.LITTLE CPUs (Section I and III.A), the device catalog used in the testbed
(Nexus 6, Nexus 6P, HiKey970, Pixel 2), the eight foreground applications of
Table II, a thermal/contention slowdown model (Observation 2), and the FPS
trace generator used to reproduce Fig. 2 (Observation 3).
"""

from repro.device.apps import APP_CATALOG, AppSpec, ForegroundApp
from repro.device.cpu import BigLittleCpu, CoreCluster, CpuLoad
from repro.device.fps import FpsTraceGenerator
from repro.device.models import DEVICE_CATALOG, DeviceSpec, build_device_fleet
from repro.device.thermal import ThermalModel

__all__ = [
    "APP_CATALOG",
    "AppSpec",
    "BigLittleCpu",
    "CoreCluster",
    "CpuLoad",
    "DEVICE_CATALOG",
    "DeviceSpec",
    "ForegroundApp",
    "FpsTraceGenerator",
    "ThermalModel",
    "build_device_fleet",
]

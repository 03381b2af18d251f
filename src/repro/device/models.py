"""Device catalog for the paper's mobile testbed.

The evaluation (Section VII) uses four device types from different vendors
and generations:

* **Nexus 6** — four homogeneous Krait cores; co-running yields only marginal
  savings and can even increase energy for cache-heavy apps (Observation 1,
  Table II).
* **Nexus 6P** — big.LITTLE (4+4); background training pinned to a single
  little core.
* **HiKey970** — development board, big.LITTLE (4+4), powered from a 12 V
  bench supply; background training pinned to one little core.
* **Pixel 2** — big.LITTLE (4+4); background cpuset exposes two little cores.

Each :class:`DeviceSpec` bundles the microarchitectural description used by
:mod:`repro.device.cpu` with the measured power levels of Table II/III via
:class:`repro.energy.measurements.MeasurementTable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.energy.measurements import (
    IDLE_POWER_W,
    OVERHEAD_POWER_W,
    TRAINING_POWER_W,
    TRAINING_TIME_S,
)

__all__ = ["DeviceSpec", "DEVICE_CATALOG", "build_device_fleet", "DEFAULT_FLEET_MIX"]


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of one device model.

    Attributes:
        name: canonical lower-case device name (``"pixel2"`` etc.).
        vendor: marketing vendor string.
        big_cores: number of high-performance cores (0 for homogeneous CPUs).
        little_cores: number of energy-efficient cores.
        big_freq_ghz: nominal maximum frequency of the big cluster.
        little_freq_ghz: nominal maximum frequency of the little cluster.
        background_cpus: how many little cores the vendor's
            ``/dev/cpuset/background/cpus`` exposes to background services —
            this bounds the training-thread count (Section VI).
        training_threads: number of training threads the paper configures.
        heterogeneous: ``True`` for big.LITTLE parts; ``False`` for the
            Nexus 6, whose homogeneous cores cause resource contention and
            degrade the co-running discount.
        memory_mb: device RAM (catalog data).
        training_power_w: ``P_b`` from Table II.
        training_time_s: ``d_i`` from Table II.
        idle_power_w: ``P_d`` from Table III.
        overhead_power_w: decision-rule computation power from Table III.
    """

    name: str
    vendor: str
    big_cores: int
    little_cores: int
    big_freq_ghz: float
    little_freq_ghz: float
    background_cpus: int
    training_threads: int
    heterogeneous: bool
    memory_mb: int
    training_power_w: float
    training_time_s: float
    idle_power_w: float
    overhead_power_w: float

    def is_dev_board(self) -> bool:
        """Whether the device is a development board (no battery/screen)."""
        return self.name == "hikey970"


def _spec(
    name: str,
    vendor: str,
    big_cores: int,
    little_cores: int,
    big_freq_ghz: float,
    little_freq_ghz: float,
    background_cpus: int,
    training_threads: int,
    heterogeneous: bool,
    memory_mb: int,
) -> DeviceSpec:
    return DeviceSpec(
        name=name,
        vendor=vendor,
        big_cores=big_cores,
        little_cores=little_cores,
        big_freq_ghz=big_freq_ghz,
        little_freq_ghz=little_freq_ghz,
        background_cpus=background_cpus,
        training_threads=training_threads,
        heterogeneous=heterogeneous,
        memory_mb=memory_mb,
        training_power_w=TRAINING_POWER_W[name],
        training_time_s=TRAINING_TIME_S[name],
        idle_power_w=IDLE_POWER_W[name],
        overhead_power_w=OVERHEAD_POWER_W[name],
    )


#: The four testbed devices, keyed by canonical name.
DEVICE_CATALOG: Dict[str, DeviceSpec] = {
    "nexus6": _spec(
        "nexus6", "Motorola", big_cores=0, little_cores=4,
        big_freq_ghz=0.0, little_freq_ghz=2.7,
        background_cpus=1, training_threads=1, heterogeneous=False,
        memory_mb=3072,
    ),
    "nexus6p": _spec(
        "nexus6p", "Huawei", big_cores=4, little_cores=4,
        big_freq_ghz=2.0, little_freq_ghz=1.55,
        background_cpus=1, training_threads=1, heterogeneous=True,
        memory_mb=3072,
    ),
    "hikey970": _spec(
        "hikey970", "HiSilicon", big_cores=4, little_cores=4,
        big_freq_ghz=2.36, little_freq_ghz=1.8,
        background_cpus=1, training_threads=1, heterogeneous=True,
        memory_mb=6144,
    ),
    "pixel2": _spec(
        "pixel2", "Google", big_cores=4, little_cores=4,
        big_freq_ghz=2.35, little_freq_ghz=1.9,
        background_cpus=2, training_threads=2, heterogeneous=True,
        memory_mb=4096,
    ),
}

#: Default mix used by the Section VII simulation: each of the 25 users picks
#: a device uniformly at random from the testbed.
DEFAULT_FLEET_MIX: Dict[str, float] = {
    "nexus6": 0.25,
    "nexus6p": 0.25,
    "hikey970": 0.25,
    "pixel2": 0.25,
}


def build_device_fleet(
    num_users: int,
    rng,
    mix: Optional[Dict[str, float]] = None,
    names: Optional[Sequence[str]] = None,
) -> List[DeviceSpec]:
    """Assign a device model to each of ``num_users`` users.

    Mirrors the evaluation setup where "each user randomly picks a device
    from the testbed".

    Args:
        num_users: number of participants.
        rng: a ``numpy.random.Generator`` (seeded by the caller).
        mix: optional probability per device name; defaults to uniform over
            the testbed.  Probabilities are normalised.
        names: optional explicit assignment (overrides ``mix``); must have
            length ``num_users``.

    Returns:
        A list of :class:`DeviceSpec`, one per user.
    """
    if num_users <= 0:
        raise ValueError("num_users must be positive")
    if names is not None:
        if len(names) != num_users:
            raise ValueError("names must have length num_users")
        return [require_device(n) for n in names]

    mix = dict(mix or DEFAULT_FLEET_MIX)
    for name in mix:
        require_device(name)
    total = sum(mix.values())
    if total <= 0:
        raise ValueError("device mix probabilities must sum to a positive value")
    devices = list(mix)
    probs = [mix[d] / total for d in devices]
    choices = rng.choice(len(devices), size=num_users, p=probs)
    return [DEVICE_CATALOG[devices[int(i)]] for i in choices]


def require_device(name: str) -> DeviceSpec:
    """Return the catalog entry for ``name`` or raise ``KeyError``."""
    if name not in DEVICE_CATALOG:
        raise KeyError(f"unknown device {name!r}; known: {sorted(DEVICE_CATALOG)}")
    return DEVICE_CATALOG[name]

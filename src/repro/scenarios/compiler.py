"""Cohort compiler: deterministic lowering of a scenario spec to engine inputs.

:func:`compile_scenario` expands a :class:`~repro.scenarios.spec.ScenarioSpec`
into the per-user inputs the simulation engine understands — device
assignments, arrival-process dicts, Wi-Fi booleans, battery capacities and
charge rates, data-skew concentrations — and packages them as
:class:`~repro.sim.config.SimulationConfig` field overrides (the same dict
shape that :class:`~repro.analysis.runner.RunSpec` carries, so compiled
scenarios flow straight into the cached parallel experiment runner).

Two invariants:

* **Determinism** — compilation is a pure function of the spec: the
  assignment RNG is seeded from ``(spec.seed, salt)`` only, cohort blocks
  are contiguous ascending user-id ranges in declaration order, and cohort
  sizes come from largest-remainder rounding.  The same spec always
  produces identical per-user assignments (``tests/test_scenarios.py``).
* **Baseline transparency** — a dimension is lowered to per-user arrays
  only when at least one cohort actually specifies it; a fully-default
  single-cohort spec compiles to pure global knobs, so ``paper-baseline``
  runs through exactly the code path (and RNG streams) of a hand-built
  default :class:`~repro.sim.config.SimulationConfig`, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.device.models import DEFAULT_FLEET_MIX
from repro.scenarios.spec import CohortSpec, ScenarioSpec, resolve_battery
from repro.sim.config import SimulationConfig

__all__ = ["CompiledScenario", "compile_scenario", "cohort_sizes"]

#: Salt mixed into the compiler's RNG seed so scenario assignment draws are
#: decoupled from every engine stream (which spawn from the bare seed).
_COMPILER_SEED_SALT = 0x5CE7A210


def cohort_sizes(fractions: Sequence[float], num_users: int) -> List[int]:
    """Largest-remainder apportionment of ``num_users`` across cohorts.

    Fractions are normalised; every cohort receives its floor share and the
    remaining users go to the largest fractional remainders (declaration
    order breaks ties).  Cohorts with a positive fraction are guaranteed at
    least one user (donated by the largest cohort when rounding starved
    them), so a scenario never silently drops a declared cohort.
    """
    if num_users < len(fractions):
        raise ValueError("more cohorts than users")
    total = float(sum(fractions))
    if total <= 0:
        raise ValueError("cohort fractions must have positive mass")
    quotas = [f / total * num_users for f in fractions]
    sizes = [int(q) for q in quotas]
    remainders = [q - s for q, s in zip(quotas, sizes)]
    missing = num_users - sum(sizes)
    for index in sorted(
        range(len(fractions)), key=lambda i: (-remainders[i], i)
    )[:missing]:
        sizes[index] += 1
    while any(size == 0 for size in sizes):
        taker = sizes.index(0)
        donor = max(range(len(sizes)), key=lambda i: (sizes[i], -i))
        if sizes[donor] <= 1:
            raise ValueError("cannot give every cohort at least one user")
        sizes[donor] -= 1
        sizes[taker] += 1
    return sizes


@dataclass
class CompiledScenario:
    """A scenario expanded into per-user engine inputs.

    Attributes mirror the heterogeneous :class:`SimulationConfig` fields; a
    ``None`` attribute means the dimension lowered to global knobs (no
    cohort specified it).  ``overrides`` is the complete, JSON-serialisable
    :class:`SimulationConfig` field-override dict — the payload handed to
    :class:`~repro.analysis.runner.RunSpec`, whose content hash therefore
    keys the run cache on everything the scenario compiled to.
    """

    spec: ScenarioSpec
    sizes: List[int]
    cohort_of: List[int]
    device_names: Optional[List[str]]
    user_arrivals: Optional[List[Dict[str, Any]]]
    user_wifi: Optional[List[bool]]
    user_battery_capacity_j: Optional[List[Optional[float]]]
    user_charge_rate_w: Optional[List[float]]
    user_data_alpha: Optional[List[Optional[float]]]
    overrides: Dict[str, Any] = field(default_factory=dict)

    def build_config(self) -> SimulationConfig:
        """Materialise the simulation configuration of the compiled scenario."""
        return SimulationConfig(**self.overrides)

    def users_of(self, cohort_name: str) -> List[int]:
        """Ascending user ids belonging to the named cohort."""
        index = list(self.spec.cohort_names()).index(cohort_name)
        return [u for u, c in enumerate(self.cohort_of) if c == index]

    def device_counts(self) -> Optional[Dict[str, int]]:
        """Pinned device histogram, or ``None`` when devices stayed global."""
        if self.device_names is None:
            return None
        counts: Dict[str, int] = {}
        for name in self.device_names:
            counts[name] = counts.get(name, 0) + 1
        return counts


def _sample_devices(
    rng: np.random.Generator, mix: Dict[str, float], count: int
) -> List[str]:
    """Sample ``count`` device names from a (normalised) mix."""
    devices = sorted(mix)
    total = float(sum(mix[d] for d in devices))
    probs = [mix[d] / total for d in devices]
    choices = rng.choice(len(devices), size=count, p=probs)
    return [devices[int(i)] for i in choices]


def compile_scenario(spec: ScenarioSpec) -> CompiledScenario:
    """Deterministically expand ``spec`` into per-user engine inputs."""
    cohorts = spec.cohorts
    sizes = cohort_sizes([c.fraction for c in cohorts], spec.num_users)
    cohort_of: List[int] = []
    for index, size in enumerate(sizes):
        cohort_of.extend([index] * size)

    rng = np.random.default_rng([spec.seed, _COMPILER_SEED_SALT])
    base = dict(spec.base)

    # Each dimension lowers to per-user arrays only if some cohort pins it;
    # otherwise the global knobs (base dict or engine defaults) stay in
    # charge and the compiled config is indistinguishable from a hand-built
    # one — the paper-baseline bitwise guarantee.
    want_devices = any(c.device_mix is not None for c in cohorts)
    want_arrivals = any(c.arrival is not None for c in cohorts)
    want_wifi = any(c.wifi_fraction is not None for c in cohorts)
    want_battery = any(c.battery is not None for c in cohorts)
    want_alpha = any(c.data_alpha is not None for c in cohorts)

    # The inherited arrival process mirrors the engine's global-knob
    # behaviour exactly: diurnal_arrivals=True in base means "diurnal with
    # peak 2x the arrival probability" (see SimulationEngine.__init__), so
    # cohorts without a pinned process keep the semantics the base declares.
    base_probability = float(base.get("app_arrival_prob", 0.001))
    if base.get("diurnal_arrivals"):
        default_arrival: Dict[str, Any] = {
            "kind": "diurnal",
            "peak_probability": 2.0 * base_probability,
        }
    else:
        default_arrival = {"kind": "bernoulli", "probability": base_probability}
    default_wifi_fraction = float(base.get("wifi_probability", 0.7))
    global_capacity = base.get("battery_capacity_j")
    global_rate = float(base.get("battery_charge_rate_w", 0.0))
    global_alpha = base.get("non_iid_alpha")

    device_names: Optional[List[str]] = [] if want_devices else None
    user_arrivals: Optional[List[Dict[str, Any]]] = [] if want_arrivals else None
    user_wifi: Optional[List[bool]] = [] if want_wifi else None
    capacities: Optional[List[Optional[float]]] = [] if want_battery else None
    rates: Optional[List[float]] = [] if want_battery else None
    alphas: Optional[List[Optional[float]]] = [] if want_alpha else None

    for cohort, size in zip(cohorts, sizes):
        if device_names is not None:
            mix = cohort.device_mix or DEFAULT_FLEET_MIX
            device_names.extend(_sample_devices(rng, mix, size))
        if user_arrivals is not None:
            # One spec object per cohort, shared by its users: the engine
            # builds one arrival process per distinct spec.
            arrival = dict(cohort.arrival or default_arrival)
            user_arrivals.extend([arrival] * size)
        if user_wifi is not None:
            fraction = (
                cohort.wifi_fraction
                if cohort.wifi_fraction is not None
                else default_wifi_fraction
            )
            # A wifi_fraction is a *fraction*, not a per-user probability:
            # exactly round(fraction * size) members are on Wi-Fi, with the
            # membership permuted so it does not correlate with the (also
            # seed-deterministic) device sampling above.
            wifi_count = int(round(fraction * size))
            members = [False] * size
            for position in rng.permutation(size)[:wifi_count]:
                members[int(position)] = True
            user_wifi.extend(members)
        if capacities is not None and rates is not None:
            if cohort.battery is not None:
                capacity, rate = resolve_battery(cohort.battery, cohort=cohort.name)
            else:
                capacity, rate = global_capacity, global_rate
            capacities.extend([capacity] * size)
            rates.extend([rate] * size)
        if alphas is not None:
            alpha = cohort.data_alpha if cohort.data_alpha is not None else global_alpha
            alphas.extend([alpha] * size)

    overrides: Dict[str, Any] = dict(base)
    overrides["num_users"] = spec.num_users
    overrides["total_slots"] = spec.total_slots
    overrides["seed"] = spec.seed
    if device_names is not None:
        overrides["device_names"] = list(device_names)
    if user_arrivals is not None:
        overrides["user_arrivals"] = list(user_arrivals)
        # The per-user processes embed (and supersede) the global knobs.
        overrides.pop("diurnal_arrivals", None)
    if user_wifi is not None:
        overrides["user_wifi"] = list(user_wifi)
    if capacities is not None and rates is not None:
        overrides["user_battery_capacity_j"] = list(capacities)
        overrides["user_charge_rate_w"] = list(rates)
        # The per-user arrays supersede any global battery knobs from base.
        overrides.pop("battery_capacity_j", None)
        overrides.pop("battery_charge_rate_w", None)
    if alphas is not None:
        overrides["user_data_alpha"] = list(alphas)
        overrides.pop("non_iid_alpha", None)

    compiled = CompiledScenario(
        spec=spec,
        sizes=sizes,
        cohort_of=cohort_of,
        device_names=device_names,
        user_arrivals=user_arrivals,
        user_wifi=user_wifi,
        user_battery_capacity_j=capacities,
        user_charge_rate_w=rates,
        user_data_alpha=alphas,
        overrides=overrides,
    )
    compiled.build_config()  # validate eagerly: a bad spec fails at compile time
    return compiled

"""Declarative scenario DSL: cohorts, personas and canonical spec hashing.

The paper evaluates one homogeneous population — 25 users, a uniform device
mix and Bernoulli arrivals at p=0.001 — and names richer usage patterns
(diurnal behaviour, Section VIII) as future work.  A :class:`ScenarioSpec`
makes such populations first-class: it describes a fleet as a list of named
**cohorts**, each a fraction of the population with its own device mix,
arrival process, connectivity, battery/charging persona and data skew.  The
spec is pure data — JSON/TOML round-trippable, hashable, and compiled into
engine inputs by :mod:`repro.scenarios.compiler`.

Two properties anchor the subsystem:

* **Canonical hashing** — :meth:`ScenarioSpec.spec_hash` digests the sorted
  canonical JSON form of what compiles into engine inputs, so equal specs
  hash equally regardless of field or cohort-dict ordering or wording, and
  any change to a cohort parameter changes the hash.
* **Bitwise baseline** — a homogeneous single-cohort spec with no explicit
  pinning lowers to pure global configuration knobs, so the built-in
  ``paper-baseline`` scenario reproduces the default
  :class:`~repro.sim.config.SimulationConfig` run bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.sim.arrivals import build_arrival_process

__all__ = [
    "CohortSpec",
    "ScenarioSpec",
    "CHARGING_PERSONAS",
    "resolve_battery",
]


#: Charging personas: (usable capacity in J, idle charging power in W).
#: A persona is shorthand for the two battery knobs the engine understands;
#: cohorts may also spell the knobs out explicitly via ``battery``.
CHARGING_PERSONAS: Dict[str, Tuple[float, float]] = {
    # Desk worker with the phone on a charger most of the time.
    "always-plugged": (30_000.0, 5.0),
    # Charges while the phone idles (the overnight pattern at trickle rate).
    "overnight-charger": (20_000.0, 2.0),
    # Runs on battery for the whole horizon.
    "unplugged": (25_000.0, 0.0),
    # Small, tired battery and no charger: drains and gates out.
    "low-battery": (1_500.0, 0.0),
}


@dataclass(frozen=True)
class CohortSpec:
    """One named slice of the population.

    Every field other than ``name`` and ``fraction`` is optional; ``None``
    means "inherit the scenario/global default", which is what lets a
    homogeneous spec lower to plain global configuration knobs.

    Attributes:
        name: cohort name (unique within a scenario).
        fraction: fraction of the population in this cohort; fractions are
            normalised over the scenario and realised by largest-remainder
            rounding, so every cohort with a positive fraction receives at
            least its floor share.
        device_mix: probability per device model for this cohort's users
            (normalised); ``None`` inherits the scenario default mix.
        arrival: declarative arrival process for this cohort's users — a
            dict understood by
            :func:`repro.sim.arrivals.build_arrival_process`
            (``bernoulli`` / ``diurnal`` / ``trace``); ``None`` inherits the
            global Bernoulli process.
        wifi_fraction: fraction of this cohort on Wi-Fi; validated, and
            otherwise inert (model transfers are counted, not timed).
        battery: either ``{"persona": <name>}`` with a
            :data:`CHARGING_PERSONAS` key, or explicit
            ``{"capacity_j": ..., "charge_rate_w": ...}``; ``None`` means
            no battery gating for this cohort (unless the scenario's base
            config enables it globally).
        data_alpha: Dirichlet label-skew concentration for this cohort's
            shards (smaller = more skew); ``None`` means no skew.
    """

    name: str
    fraction: float
    device_mix: Optional[Dict[str, float]] = None
    arrival: Optional[Dict[str, Any]] = None
    wifi_fraction: Optional[float] = None  # inert; kept because bench/workloads/configs.py passes it
    battery: Optional[Dict[str, Any]] = None
    data_alpha: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("cohort name must be non-empty")
        if self.fraction <= 0:
            raise ValueError(f"cohort {self.name!r}: fraction must be positive")
        if self.arrival is not None:
            try:
                build_arrival_process(self.arrival)
            except (TypeError, ValueError) as error:
                raise ValueError(
                    f"cohort {self.name!r}: invalid arrival spec: {error}"
                ) from None
        if self.wifi_fraction is not None and not 0.0 <= self.wifi_fraction <= 1.0:
            raise ValueError(f"cohort {self.name!r}: wifi_fraction must be in [0, 1]")
        if self.battery is not None:
            resolve_battery(self.battery, cohort=self.name)
        if self.data_alpha is not None and self.data_alpha <= 0:
            raise ValueError(f"cohort {self.name!r}: data_alpha must be positive")
        if self.device_mix is not None:
            from repro.device.models import DEVICE_CATALOG

            unknown = sorted(set(self.device_mix) - set(DEVICE_CATALOG))
            if unknown:
                raise ValueError(
                    f"cohort {self.name!r}: unknown devices {unknown}; "
                    f"known: {sorted(DEVICE_CATALOG)}"
                )
            if any(p < 0 for p in self.device_mix.values()):
                raise ValueError(
                    f"cohort {self.name!r}: device_mix probabilities must be "
                    "non-negative"
                )
            if not self.device_mix or sum(self.device_mix.values()) <= 0:
                raise ValueError(
                    f"cohort {self.name!r}: device_mix must have positive mass"
                )


def resolve_battery(
    battery: Mapping[str, Any], cohort: str = "?"
) -> Tuple[float, float]:
    """Resolve a cohort battery dict into ``(capacity_j, charge_rate_w)``.

    Accepts ``{"persona": <name>}`` (a :data:`CHARGING_PERSONAS` key,
    optionally overridden by explicit keys) or the explicit knobs alone.
    """
    known = {"persona", "capacity_j", "charge_rate_w"}
    unknown = sorted(set(battery) - known)
    if unknown:
        raise ValueError(
            f"cohort {cohort!r}: unknown battery keys {unknown}; known: {sorted(known)}"
        )
    capacity: Optional[float] = None
    rate = 0.0
    persona = battery.get("persona")
    if persona is not None:
        if persona not in CHARGING_PERSONAS:
            raise ValueError(
                f"cohort {cohort!r}: unknown charging persona {persona!r}; "
                f"known: {sorted(CHARGING_PERSONAS)}"
            )
        capacity, rate = CHARGING_PERSONAS[persona]
    if "capacity_j" in battery:
        capacity = float(battery["capacity_j"])
    if "charge_rate_w" in battery:
        rate = float(battery["charge_rate_w"])
    if capacity is None:
        raise ValueError(
            f"cohort {cohort!r}: battery needs a persona or an explicit capacity_j"
        )
    if capacity <= 0:
        raise ValueError(f"cohort {cohort!r}: battery capacity_j must be positive")
    if rate < 0:
        raise ValueError(f"cohort {cohort!r}: battery charge_rate_w must be non-negative")
    return capacity, rate


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, hashable description of one simulated population.

    Attributes:
        name: scenario name (the registry/CLI handle).
        description: one-line human description.
        num_users: population size.
        total_slots: horizon in slots.
        cohorts: the population slices, in declaration order (users are
            assigned to cohorts as contiguous ascending-id blocks).
        seed: master seed — both the engine seed and the cohort compiler's
            assignment seed derive from it.
        base: extra :class:`~repro.sim.config.SimulationConfig` field
            overrides applied under the compiled cohort fields (e.g.
            ``min_battery_soc``, ``app_weights``, dataset knobs).  Must be
            JSON-serialisable.
        tags: free-form labels for the registry listing.
    """

    name: str
    description: str = ""
    num_users: int = 25
    total_slots: int = 10_800
    cohorts: Tuple[CohortSpec, ...] = ()
    seed: int = 0
    base: Dict[str, Any] = field(default_factory=dict)
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.num_users <= 0:
            raise ValueError("num_users must be positive")
        if self.total_slots <= 0:
            raise ValueError("total_slots must be positive")
        if not self.cohorts:
            raise ValueError("a scenario needs at least one cohort")
        names = [cohort.name for cohort in self.cohorts]
        if len(set(names)) != len(names):
            raise ValueError(f"cohort names must be unique, got {names}")
        if len(self.cohorts) > self.num_users:
            raise ValueError("more cohorts than users")
        reserved = {
            "num_users",
            "total_slots",
            "seed",
            "device_names",
            "user_arrivals",
            "user_battery_capacity_j",
            "user_charge_rate_w",
            "user_data_alpha",
        }
        clash = sorted(reserved & set(self.base))
        if clash:
            raise ValueError(
                f"base overrides {clash} are owned by the scenario/compiler; "
                "set them through the spec or cohorts instead"
            )
        # Coerce JSON round-trip artefacts back into the canonical shapes.
        object.__setattr__(self, "cohorts", tuple(self.cohorts))
        object.__setattr__(self, "tags", tuple(self.tags))

    # -- canonical form and hashing --------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON/TOML round-trippable)."""
        payload = asdict(self)
        payload["cohorts"] = [asdict(cohort) for cohort in self.cohorts]
        payload["tags"] = list(self.tags)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (or a file spec)."""
        data = dict(payload)
        cohorts = data.pop("cohorts", None)
        if not cohorts:
            raise ValueError("scenario spec needs a non-empty 'cohorts' list")
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown scenario fields {unknown}; known: {sorted(known)}")
        built = []
        cohort_fields = set(CohortSpec.__dataclass_fields__)  # type: ignore[attr-defined]
        for cohort in cohorts:
            extra = sorted(set(cohort) - cohort_fields)
            if extra:
                raise ValueError(
                    f"unknown cohort fields {extra}; known: {sorted(cohort_fields)}"
                )
            built.append(CohortSpec(**cohort))
        data["cohorts"] = tuple(built)
        if "tags" in data:
            data["tags"] = tuple(data["tags"])
        return cls(**data)

    def canonical(self) -> str:
        """Canonical JSON (sorted keys) of what compiles into engine inputs —
        the hashing substrate.  The free text (the scenario's name,
        description and tags, each cohort's name) never reaches the engine,
        so it is left out: rewording a scenario keeps its hash."""
        payload = self.to_dict()
        for key in ("name", "description", "tags"):
            del payload[key]
        for cohort in payload["cohorts"]:
            del cohort["name"]
        return json.dumps(payload, sort_keys=True)

    def spec_hash(self) -> str:
        """Stable content hash of the scenario (16 hex chars)."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:16]

    # -- convenience -------------------------------------------------------------

    def scaled(self, **overrides) -> "ScenarioSpec":
        """A copy with field overrides (e.g. a smoke-scale ``total_slots``).

        Scaling changes the canonical form, so the scaled spec hashes (and
        caches) independently of its parent.
        """
        return replace(self, **overrides)

    def cohort_names(self) -> Sequence[str]:
        """Cohort names in declaration order."""
        return [cohort.name for cohort in self.cohorts]

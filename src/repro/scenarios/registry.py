"""Registry of built-in named scenarios plus JSON/TOML file-based specs.

The built-ins form a gallery spanning the axes the DSL can express — device
heterogeneity, arrival patterns (Bernoulli / diurnal / trace replay),
connectivity, charging personas, data skew and population scale — so
``repro-sim scenario run <name>`` exercises workloads the paper names as
future work (Section VIII) without any hand-assembled configuration.

File-based specs use the same plain-data shape as
:meth:`~repro.scenarios.spec.ScenarioSpec.to_dict`: JSON everywhere, TOML on
Python 3.11+ (stdlib ``tomllib``; no new dependencies).
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List

from repro.scenarios.spec import CohortSpec, ScenarioSpec

__all__ = [
    "BUILTIN_SCENARIO_NAMES",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "load_scenario_file",
]


def _paper_baseline() -> ScenarioSpec:
    # One fully-default cohort: lowers to pure global knobs and therefore
    # reproduces the default SimulationConfig run bit for bit.
    return ScenarioSpec(
        name="paper-baseline",
        description="The Section VII.B evaluation: 25 users, uniform devices, "
        "Bernoulli arrivals at p=0.001 over a 3 h horizon.",
        num_users=25,
        total_slots=10_800,
        cohorts=(CohortSpec(name="users", fraction=1.0),),
        tags=("paper", "baseline"),
    )


def _diurnal_commuters() -> ScenarioSpec:
    day = 86_400.0
    return ScenarioSpec(
        name="diurnal-commuters",
        description="Day-active commuters vs phase-shifted night owls "
        "(the Section VIII diurnal usage pattern).",
        num_users=40,
        total_slots=10_800,
        cohorts=(
            CohortSpec(
                name="commuters",
                fraction=0.7,
                arrival={
                    "kind": "diurnal",
                    "peak_probability": 0.004,
                    "trough_probability": 0.0002,
                    "period_s": day,
                    "phase_s": 0.0,
                },
            ),
            CohortSpec(
                name="night-owls",
                fraction=0.3,
                arrival={
                    "kind": "diurnal",
                    "peak_probability": 0.003,
                    "trough_probability": 0.0004,
                    "period_s": day,
                    "phase_s": day / 2.0,
                },
            ),
        ),
        tags=("arrivals", "diurnal"),
    )


def _overnight_chargers() -> ScenarioSpec:
    return ScenarioSpec(
        name="overnight-chargers",
        description="Battery-gated fleet: most phones trickle-charge while "
        "idle, a quarter run down unplugged and gate out.",
        num_users=30,
        total_slots=10_800,
        cohorts=(
            CohortSpec(
                name="chargers",
                fraction=0.75,
                battery={"persona": "overnight-charger"},
            ),
            CohortSpec(
                name="unplugged",
                fraction=0.25,
                battery={"persona": "low-battery"},
            ),
        ),
        base={"app_arrival_prob": 0.0005, "min_battery_soc": 0.2},
        tags=("battery", "personas", "sparse"),
    )


def _flagship_vs_budget() -> ScenarioSpec:
    return ScenarioSpec(
        name="flagship-vs-budget",
        description="Flagship big.LITTLE handsets against a budget tier of "
        "homogeneous Nexus 6 devices on slower uplinks.",
        num_users=40,
        total_slots=10_800,
        cohorts=(
            CohortSpec(
                name="flagship",
                fraction=0.4,
                device_mix={"pixel2": 0.7, "hikey970": 0.3},
                wifi_fraction=0.9,
            ),
            CohortSpec(
                name="budget",
                fraction=0.6,
                device_mix={"nexus6": 0.8, "nexus6p": 0.2},
                wifi_fraction=0.4,
            ),
        ),
        tags=("devices", "network"),
    )


def _metered_uplink() -> ScenarioSpec:
    return ScenarioSpec(
        name="metered-uplink",
        description="A mostly-LTE fleet with radio energy accounted: what "
        "asynchronous FL costs when uplinks are metered.",
        num_users=25,
        total_slots=10_800,
        cohorts=(
            CohortSpec(name="metered", fraction=0.8, wifi_fraction=0.1),
            CohortSpec(name="home-wifi", fraction=0.2, wifi_fraction=1.0),
        ),
        base={"account_radio_energy": True},
        tags=("network", "energy"),
    )


def _non_iid_pathological() -> ScenarioSpec:
    return ScenarioSpec(
        name="non-iid-pathological",
        description="Pathological label skew on half the fleet "
        "(Dirichlet alpha=0.05) against an unskewed half.",
        num_users=24,
        total_slots=10_800,
        cohorts=(
            CohortSpec(name="skewed", fraction=0.5, data_alpha=0.05),
            CohortSpec(name="balanced", fraction=0.5),
        ),
        tags=("data", "non-iid"),
    )


def _churny_fleet() -> ScenarioSpec:
    # A 15-minute usage trace replayed cyclically: bursts of app launches
    # every few minutes, so co-running windows open and close constantly.
    burst = [0, 30, 60, 300, 330, 600, 640, 780]
    return ScenarioSpec(
        name="churny-fleet",
        description="Trace-replayed bursty app usage: frequent short "
        "foreground sessions churn the co-running windows.",
        num_users=30,
        total_slots=7_200,
        cohorts=(
            CohortSpec(
                name="bursty",
                fraction=0.6,
                arrival={"kind": "trace", "slots": burst, "period_slots": 900},
            ),
            CohortSpec(
                name="steady",
                fraction=0.4,
                arrival={"kind": "bernoulli", "probability": 0.002},
            ),
        ),
        tags=("arrivals", "trace", "churn"),
    )


def _megafleet_1k() -> ScenarioSpec:
    return ScenarioSpec(
        name="megafleet-1k",
        description="1000-user heterogeneous fleet over the full 3 h "
        "horizon: the production-scale workload the fast substrate "
        "(fleet backend, fast-forward) exists for.",
        num_users=1_000,
        total_slots=10_800,
        cohorts=(
            CohortSpec(
                name="mainstream",
                fraction=0.55,
                arrival={"kind": "bernoulli", "probability": 0.0008},
            ),
            CohortSpec(
                name="commuters",
                fraction=0.25,
                arrival={
                    "kind": "diurnal",
                    "peak_probability": 0.002,
                    "trough_probability": 0.0001,
                },
                device_mix={"pixel2": 0.5, "nexus6p": 0.5},
            ),
            CohortSpec(
                name="budget-metered",
                fraction=0.15,
                device_mix={"nexus6": 1.0},
                wifi_fraction=0.3,
            ),
            CohortSpec(
                name="skewed-data",
                fraction=0.05,
                data_alpha=0.1,
            ),
        ),
        base={"num_train_samples": 4_000, "eval_interval_slots": 1_200},
        tags=("scale", "megafleet"),
    )


def _megafleet_100k() -> ScenarioSpec:
    # The sharded-engine workload: two orders of magnitude past megafleet-1k.
    # Sized for a manual run on one machine — a 15-minute horizon,
    # one training sample per user and a narrow MLP keep the absolute compute
    # honest-but-bounded while the *population mechanics* (100k arrival
    # streams, 100k-entry ready pools and in-flight set, per-shard fleets)
    # run at full scale.  Intended execution: ShardedEngine (``--shards``)
    # with sparse arrival generation (automatic at this volume) and
    # ``--trace-level summary`` so telemetry stays memory-bounded.
    return ScenarioSpec(
        name="megafleet-100k",
        description="100 000-user sharded-fleet workload over a 15 min "
        "horizon: the population-partitioning scale target "
        "(run with --shards N --trace-level summary).",
        num_users=100_000,
        total_slots=900,
        cohorts=(
            CohortSpec(
                name="mainstream",
                fraction=0.65,
                arrival={"kind": "bernoulli", "probability": 0.0006},
            ),
            CohortSpec(
                name="commuters",
                fraction=0.20,
                arrival={
                    "kind": "diurnal",
                    "peak_probability": 0.0015,
                    "trough_probability": 0.0001,
                },
                device_mix={"pixel2": 0.5, "nexus6p": 0.5},
            ),
            CohortSpec(
                name="budget-metered",
                fraction=0.15,
                device_mix={"nexus6": 1.0},
                wifi_fraction=0.3,
            ),
        ),
        base={
            "num_train_samples": 100_000,
            "num_test_samples": 500,
            "hidden_dims": [16],
            "eval_interval_slots": 300,
            "trace_interval_slots": 120,
        },
        tags=("scale", "megafleet", "sharded"),
    )


def _megafleet_1M() -> ScenarioSpec:
    # The shared-memory data plane's scale target: one order of magnitude
    # past megafleet-100k.  Population mechanics run at full scale — a
    # million arrival streams, million-entry ready pools, compact int32
    # slot counters, per-shard fleets exchanging payloads through the
    # mailbox slabs — while the per-step compute stays bounded by a short
    # horizon, one training sample per user, and the narrowest MLP.
    # Intended execution: ShardedEngine (``--shards``) with sparse arrival
    # generation and ``--trace-level summary``; anything else at this
    # volume is an error in the making (a full trace alone would dwarf
    # the fleet state).
    return ScenarioSpec(
        name="megafleet-1M",
        description="1 000 000-user sharded-fleet workload over a 5 min "
        "horizon: the shared-memory data-plane scale target "
        "(run with --shards N --trace-level summary).",
        num_users=1_000_000,
        total_slots=300,
        cohorts=(
            CohortSpec(
                name="mainstream",
                fraction=0.70,
                arrival={"kind": "bernoulli", "probability": 0.0002},
            ),
            CohortSpec(
                name="commuters",
                fraction=0.20,
                arrival={
                    "kind": "diurnal",
                    "peak_probability": 0.0005,
                    "trough_probability": 0.00005,
                },
                device_mix={"pixel2": 0.5, "nexus6p": 0.5},
            ),
            CohortSpec(
                name="budget-metered",
                fraction=0.10,
                device_mix={"nexus6": 1.0},
                wifi_fraction=0.3,
            ),
        ),
        base={
            "num_train_samples": 1_000_000,
            "num_test_samples": 500,
            "hidden_dims": [8],
            "eval_interval_slots": 300,
            "trace_interval_slots": 150,
        },
        tags=("scale", "megafleet", "sharded"),
    )


def _weekend_gamers() -> ScenarioSpec:
    # Application popularity skewed towards the two intensive games; the
    # weights align with APP_CATALOG insertion order (map, news, etrade,
    # youtube, tiktok, zoom, candycrush, angrybird), as app_pool consumes
    # them.
    return ScenarioSpec(
        name="weekend-gamers",
        description="Game-heavy foreground mix on gaming-grade flagships: "
        "stress the Observation 2 contention slowdown.",
        num_users=20,
        total_slots=7_200,
        cohorts=(
            CohortSpec(
                name="gamers",
                fraction=0.7,
                device_mix={"pixel2": 0.6, "nexus6": 0.4},
                arrival={"kind": "bernoulli", "probability": 0.003},
            ),
            CohortSpec(name="casual", fraction=0.3),
        ),
        base={"app_weights": [1.0, 1.0, 0.5, 2.0, 2.0, 0.5, 6.0, 6.0]},
        tags=("apps", "contention"),
    )


_BUILTIN_FACTORIES: Dict[str, Callable[[], ScenarioSpec]] = {
    "paper-baseline": _paper_baseline,
    "diurnal-commuters": _diurnal_commuters,
    "overnight-chargers": _overnight_chargers,
    "flagship-vs-budget": _flagship_vs_budget,
    "metered-uplink": _metered_uplink,
    "non-iid-pathological": _non_iid_pathological,
    "churny-fleet": _churny_fleet,
    "megafleet-1k": _megafleet_1k,
    "megafleet-100k": _megafleet_100k,
    "megafleet-1M": _megafleet_1M,
    "weekend-gamers": _weekend_gamers,
}

#: Names of the built-in scenario gallery, in registry order.
BUILTIN_SCENARIO_NAMES: List[str] = list(_BUILTIN_FACTORIES)

#: Specs registered at runtime (tests, notebooks, plugins).
_RUNTIME_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, overwrite: bool = False) -> None:
    """Register a runtime scenario under its name.

    Built-in names are protected; runtime names collide unless
    ``overwrite`` is set.
    """
    if spec.name in _BUILTIN_FACTORIES:
        raise ValueError(f"{spec.name!r} is a built-in scenario and cannot be replaced")
    if spec.name in _RUNTIME_REGISTRY and not overwrite:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _RUNTIME_REGISTRY[spec.name] = spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a scenario by name (built-ins first, then runtime registry)."""
    factory = _BUILTIN_FACTORIES.get(name)
    if factory is not None:
        return factory()
    if name in _RUNTIME_REGISTRY:
        return _RUNTIME_REGISTRY[name]
    known = BUILTIN_SCENARIO_NAMES + sorted(_RUNTIME_REGISTRY)
    raise KeyError(f"unknown scenario {name!r}; known: {known}")


def list_scenarios() -> List[ScenarioSpec]:
    """All registered scenarios (built-ins in registry order, then runtime)."""
    specs = [factory() for factory in _BUILTIN_FACTORIES.values()]
    specs.extend(_RUNTIME_REGISTRY[name] for name in sorted(_RUNTIME_REGISTRY))
    return specs


def load_scenario_file(path: str) -> ScenarioSpec:
    """Load a scenario spec from a ``.json`` or ``.toml`` file.

    The file holds the :meth:`ScenarioSpec.to_dict` shape (see
    ``docs/scenarios.md`` for examples).  TOML requires the stdlib
    ``tomllib`` (Python 3.11+); JSON works everywhere.
    """
    extension = os.path.splitext(path)[1].lower()
    if extension == ".json":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    elif extension == ".toml":
        try:
            import tomllib
        except ImportError:  # Python < 3.11: JSON specs still work
            raise RuntimeError(
                "TOML scenario files need Python 3.11+ (stdlib tomllib); "
                "use a JSON spec instead"
            ) from None
        with open(path, "rb") as handle:
            payload = tomllib.load(handle)
    else:
        raise ValueError(f"unsupported scenario file type {extension!r} (.json/.toml)")
    return ScenarioSpec.from_dict(payload)

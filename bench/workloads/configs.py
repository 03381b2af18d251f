"""Literal inputs of the benchmark workloads.

Owned here on purpose: nothing is imported from ``repro.scenarios.registry``
or from ``benchmarks/*_smoke.py``, so those may change or disappear without
moving the benchmark.  ``--seed`` is the only input that reaches
``SimulationConfig.seed`` / ``ScenarioSpec.seed``.

Sizes: ``full`` is what ``BENCHMARK.json`` measures.  The driver allows about
20 s per invocation and at least two repetitions must fit, so a repetition
may take up to about six seconds.  Every population keeps the property its
workload is there for (``bench/README.md`` has the measured shares): the
overnight fleet its whole 21 600-slot night, the megafleet more than
``SPARSE_GENERATION_THRESHOLD`` user-slots, the paper population an hour in
which every user sees several app arrivals.  ``smoke`` is the
seconds-for-everything size the tier-1 smoke test uses.
"""

from __future__ import annotations

from repro.scenarios.spec import CohortSpec, ScenarioSpec
from repro.sim.config import SimulationConfig

SCALES = ("full", "smoke")

#: (users, slots) per population and scale.
_SIZES = {
    "paper": {"full": (25, 3_600), "smoke": (10, 240)},
    "midfleet": {"full": (400, 1_800), "smoke": (40, 240)},
    "overnight": {"full": (500, 21_600), "smoke": (60, 600)},
    "megafleet": {"full": (4_000, 600), "smoke": (200, 300)},
}

#: Checkpoint cadence of ``midfleet-400.ckpt`` (slots), per scale.
CHECKPOINT_EVERY = {"full": 120, "smoke": 60}


def paper_config(seed: int, scale: str) -> SimulationConfig:
    """The Sec. VII.B population: every default, one hour of its three."""
    users, slots = _SIZES["paper"][scale]
    return SimulationConfig(
        num_users=users, total_slots=slots, app_arrival_prob=0.001, seed=seed
    )


def midfleet_config(seed: int, scale: str) -> SimulationConfig:
    """Mid-size heterogeneous fleet: dense decisions every slot."""
    users, slots = _SIZES["midfleet"][scale]
    return SimulationConfig(
        num_users=users,
        total_slots=slots,
        app_arrival_prob=0.002,
        seed=seed,
        num_train_samples=5 * users,
        num_test_samples=400,
        hidden_dims=(32,),
        eval_interval_slots=300,
        trace_interval_slots=60,
        user_data_alpha=[0.2 if user % 5 == 0 else None for user in range(users)],
    )


def overnight_spec(seed: int, scale: str) -> ScenarioSpec:
    """Battery-gated phones that drain, gate out and trickle-charge back."""
    users, slots = _SIZES["overnight"][scale]
    return ScenarioSpec(
        name="bench-overnight",
        num_users=users,
        total_slots=slots,
        seed=seed,
        cohorts=(
            CohortSpec(
                name="phones",
                fraction=1.0,
                # Phones only: a dev board has no battery and would train all night.
                device_mix={"pixel2": 1 / 3, "nexus6": 1 / 3, "nexus6p": 1 / 3},
                battery={"capacity_j": 1_500.0, "charge_rate_w": 0.5},
            ),
        ),
        base={
            "min_battery_soc": 0.2,
            "app_arrival_prob": 0.0005,
            "hidden_dims": [16],
            "num_train_samples": users,
            "num_test_samples": 500,
            "eval_interval_slots": 1_200,
            "trace_interval_slots": 120,
        },
    )


def megafleet_spec(seed: int, scale: str) -> ScenarioSpec:
    """The ``megafleet-100k`` cohort mix at a population that fits the budget
    and still takes the sparse arrival generator."""
    users, slots = _SIZES["megafleet"][scale]
    return ScenarioSpec(
        name="bench-megafleet",
        num_users=users,
        total_slots=slots,
        seed=seed,
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
            "num_train_samples": users,
            "num_test_samples": 500,
            "hidden_dims": [16],
            "eval_interval_slots": 300,
            "trace_interval_slots": 120,
        },
    )

"""Tour of the scenario subsystem (docs/scenarios.md).

Runs three built-in scenarios and one programmatic custom scenario at a
laptop-friendly scale, comparing scheduling policies on each compiled
population and reporting carbon alongside energy.

Run with::

    PYTHONPATH=src python examples/scenario_gallery.py
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.analysis.runner import annotate_carbon
from repro.scenarios import (
    CohortSpec,
    ScenarioRunner,
    ScenarioSpec,
    compile_scenario,
    get_scenario,
)

#: Shrink the built-ins for interactive use; cohort structure is preserved
#: and the scaled spec hashes (and caches) independently of its parent.
SMOKE = dict(num_users=12, total_slots=1800)


def show_compilation(name: str) -> None:
    """Print what the cohort compiler produced for one scenario."""
    spec = get_scenario(name).scaled(**SMOKE)
    compiled = compile_scenario(spec)
    print(f"\n{spec.name}  (spec hash {spec.spec_hash()})")
    for cohort, size in zip(spec.cohorts, compiled.sizes):
        users = compiled.users_of(cohort.name)
        print(f"  cohort {cohort.name!r}: {size} users (ids {users[0]}..{users[-1]})")
    if compiled.device_counts():
        print(f"  pinned devices: {compiled.device_counts()}")


def compare_policies(runner: ScenarioRunner, scenario, title: str) -> None:
    """All four schemes on one compiled population, with carbon totals."""
    summaries = runner.sweep_policies(
        scenario, online_kwargs={"v": 4000.0, "staleness_bound": 500.0}
    )
    annotate_carbon(summaries, "world_average")
    baseline = summaries[0]
    rows = []
    for summary in summaries:
        saving = 100.0 * (1.0 - summary.energy_j / baseline.energy_j)
        rows.append([
            summary.label.split("[")[-1].rstrip("]"),
            summary.energy_kj,
            saving,
            summary.num_updates,
            summary.final_accuracy,
            summary.carbon_g,
        ])
    print(format_table(
        ["policy", "energy (kJ)", "saving %", "updates", "accuracy", "CO2 (g)"],
        rows, float_format=".2f", title=title,
    ))


def custom_scenario() -> ScenarioSpec:
    """A scenario built in code rather than loaded from the registry/file."""
    return ScenarioSpec(
        name="campus-fleet",
        description="Lecture-hall bursts + dorm chargers + skewed lab data",
        num_users=12,
        total_slots=1800,
        cohorts=(
            CohortSpec(
                name="lectures",
                fraction=0.5,
                arrival={"kind": "trace", "slots": [0, 60, 120], "period_slots": 600},
            ),
            CohortSpec(
                name="dorms",
                fraction=0.3,
                battery={"persona": "overnight-charger"},
            ),
            CohortSpec(name="lab", fraction=0.2, data_alpha=0.1),
        ),
        seed=11,
    )


def main() -> None:
    for name in ("flagship-vs-budget", "overnight-chargers", "churny-fleet"):
        show_compilation(name)

    runner = ScenarioRunner(jobs=1)
    for name in ("flagship-vs-budget", "churny-fleet"):
        compare_policies(
            runner,
            get_scenario(name).scaled(**SMOKE),
            title=f"Policy comparison on {name} (smoke scale)",
        )
    compare_policies(runner, custom_scenario(), title="Custom campus-fleet scenario")


if __name__ == "__main__":
    main()

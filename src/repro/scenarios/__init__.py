"""Declarative heterogeneous-fleet scenarios.

The scenario subsystem sits between the simulation engine and the
analysis/benchmark stack: a :class:`ScenarioSpec` names a population as
weighted cohorts (device mix, arrival process, connectivity, charging
persona, data skew), the cohort compiler deterministically lowers it to
per-user engine inputs, the registry holds a gallery of built-in scenarios
plus JSON/TOML file specs, and the runner executes them through the cached
parallel experiment suite.  See ``docs/scenarios.md``.
"""

from repro.scenarios.compiler import CompiledScenario, compile_scenario, cohort_sizes
from repro.scenarios.registry import (
    BUILTIN_SCENARIO_NAMES,
    get_scenario,
    list_scenarios,
    load_scenario_file,
)
from repro.scenarios.runner import ScenarioRunner, resolve_scenario, scenario_run_spec
from repro.scenarios.spec import (
    CHARGING_PERSONAS,
    CohortSpec,
    ScenarioSpec,
    resolve_battery,
)

__all__ = [
    "BUILTIN_SCENARIO_NAMES",
    "CHARGING_PERSONAS",
    "CohortSpec",
    "CompiledScenario",
    "ScenarioRunner",
    "ScenarioSpec",
    "cohort_sizes",
    "compile_scenario",
    "get_scenario",
    "list_scenarios",
    "load_scenario_file",
    "resolve_battery",
    "resolve_scenario",
    "scenario_run_spec",
]

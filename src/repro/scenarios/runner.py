"""Scenario execution: spec-hash-keyed caching, fan-out, and sweeps.

Bridges the scenario DSL to the parallel experiment infrastructure: a
scenario compiles to a :class:`~repro.analysis.runner.RunSpec` whose config
dict *is* the compiled per-user expansion, so the suite's content-hash disk
cache is keyed on everything the scenario lowers to — change any cohort
parameter and the hash (hence the cache key) changes; re-run the same spec
and the summary is served from disk.  ``jobs`` fans scenario grids across
worker processes exactly like the Fig. 4/6 sweeps.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from repro.analysis.runner import (
    ExperimentSuite,
    RunSpec,
    RunSummary,
    run_spec,
)
from repro.scenarios.compiler import CompiledScenario, compile_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.sim.engine import SimulationResult

__all__ = ["ScenarioRunner", "scenario_run_spec", "resolve_scenario"]

ScenarioLike = Union[str, ScenarioSpec, CompiledScenario]


def resolve_scenario(scenario: ScenarioLike) -> CompiledScenario:
    """Accept a registry name, a spec, or an already-compiled scenario."""
    if isinstance(scenario, CompiledScenario):
        return scenario
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    return compile_scenario(scenario)


def scenario_run_spec(
    scenario: ScenarioLike,
    policy: str = "online",
    policy_kwargs: Optional[Dict[str, Any]] = None,
    fast_forward: bool = True,
    shards: int = 1,
    trace_level: str = "full",
    label: Optional[str] = None,
) -> RunSpec:
    """Lower a scenario plus a policy choice into one cacheable run spec.

    The returned spec's ``config`` holds the compiled per-user expansion, so
    :meth:`RunSpec.config_hash` keys the cache on the scenario content (plus
    policy and execution-mode switches, as for every spec).
    """
    compiled = resolve_scenario(scenario)
    name = compiled.spec.name
    return RunSpec(
        policy=policy,
        policy_kwargs=dict(policy_kwargs or {}),
        config=dict(compiled.overrides),
        fast_forward=fast_forward,
        shards=shards,
        trace_level=trace_level,
        label=label or f"scenario:{name}[{policy}]",
    )


class ScenarioRunner:
    """Run named scenarios through the cached parallel experiment suite.

    Args:
        cache_dir: summary cache directory (``None`` disables caching).
        jobs: worker processes for grids (``1`` = sequential).
        fast_forward: engine execution mode for every run launched by
            this runner.
        shards: partition each run's population across this many worker
            processes (:class:`repro.sim.shard.ShardedEngine`); ``1`` keeps
            the single-process engine.  Composes with ``jobs``: a grid fans
            runs across processes, a sharded run fans its population.
        trace_level: telemetry volume per run (``summary`` is the megafleet
            setting — memory-bounded telemetry, identical headline numbers).
        metrics_store: optional :class:`repro.metrics.store.MetricsStore`
            (or a path for one); every summary lands in it for cross-run
            queries (``repro-sim metrics ...``).
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        jobs: int = 1,
        fast_forward: bool = True,
        shards: int = 1,
        trace_level: str = "full",
        metrics_store: Any = None,
    ) -> None:
        self.suite = ExperimentSuite(
            cache_dir=cache_dir, jobs=jobs, metrics_store=metrics_store
        )
        self.fast_forward = fast_forward
        self.shards = shards
        self.trace_level = trace_level

    def _spec(
        self,
        scenario: ScenarioLike,
        policy: str,
        policy_kwargs: Optional[Dict[str, Any]] = None,
    ) -> RunSpec:
        return scenario_run_spec(
            scenario,
            policy=policy,
            policy_kwargs=policy_kwargs,
            fast_forward=self.fast_forward,
            shards=self.shards,
            trace_level=self.trace_level,
        )

    def run(
        self,
        scenarios: Sequence[ScenarioLike],
        policy: str = "online",
        policy_kwargs: Optional[Dict[str, Any]] = None,
        refresh: bool = False,
    ) -> List[RunSummary]:
        """Run one policy across many scenarios (cached, parallel)."""
        specs = [self._spec(s, policy, policy_kwargs) for s in scenarios]
        return self.suite.run(specs, refresh=refresh)

    def run_one(
        self,
        scenario: ScenarioLike,
        policy: str = "online",
        policy_kwargs: Optional[Dict[str, Any]] = None,
        refresh: bool = False,
    ) -> RunSummary:
        """Run a single scenario and return its summary."""
        return self.run([scenario], policy, policy_kwargs, refresh=refresh)[0]

    def run_full(
        self,
        scenario: ScenarioLike,
        policy: str = "online",
        policy_kwargs: Optional[Dict[str, Any]] = None,
    ) -> SimulationResult:
        """Run a scenario and return the *full* result (never cached)."""
        return run_spec(self._spec(scenario, policy, policy_kwargs))

    def sweep_policies(
        self,
        scenario: ScenarioLike,
        policies: Sequence[str] = ("immediate", "sync", "offline", "online"),
        online_kwargs: Optional[Dict[str, Any]] = None,
        refresh: bool = False,
    ) -> List[RunSummary]:
        """All scheduling schemes on one scenario (the Fig. 5 comparison shape)."""
        compiled = resolve_scenario(scenario)
        specs = [
            self._spec(
                compiled,
                policy,
                online_kwargs if policy == "online" else None,
            )
            for policy in policies
        ]
        return self.suite.run(specs, refresh=refresh)

    def sweep_v(
        self,
        scenario: ScenarioLike,
        v_values: Sequence[float],
        staleness_bound: float = 500.0,
        refresh: bool = False,
    ) -> List[RunSummary]:
        """Online-scheduler V sweep on one scenario (the Fig. 4 shape)."""
        compiled = resolve_scenario(scenario)
        specs = [
            self._spec(
                compiled,
                "online",
                {"v": float(v), "staleness_bound": float(staleness_bound)},
            )
            for v in v_values
        ]
        return self.suite.run(specs, refresh=refresh)

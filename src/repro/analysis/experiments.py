"""One runner per table and figure of the paper's evaluation (Section VII).

Every runner is deterministic given its seed and returns plain data
structures.  The paper-scale settings (25 users, 3-hour horizon, arrival
probability 0.001) are expensive to sweep exhaustively, so every runner takes
an :class:`ExperimentScale` that the benchmark suite uses to shrink the
horizon and fleet while keeping the workload *shape* (arrival probability is
scaled up in proportion so the expected number of co-running opportunities
per user stays comparable).  EXPERIMENTS.md records the scale used for each
reported artefact.

The grid-shaped runners (Fig. 4's V-sweep, Fig. 5c's seed repetition,
Fig. 6's arrival-rate sweep) accept ``jobs``: with ``jobs > 1`` the
independent runs fan out across processes via
:class:`repro.analysis.runner.ExperimentSuite`.  Every engine builds its
synthetic dataset from the config seed, in a worker or not, so ``jobs``
changes wall-clock time, never results.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.offline import OfflinePolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import ImmediatePolicy, SchedulingPolicy, SyncPolicy
from repro.core.tradeoff import SweepPoint
from repro.device.fps import FpsTraceGenerator
from repro.energy.measurements import MeasurementTable
from repro.energy.profiler import PowerProfiler
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine, SimulationResult

__all__ = [
    "ExperimentScale",
    "paper_config",
    "run_policy",
    "table2_rows",
    "table3_overhead_rows",
    "fig1_power_schedules",
    "fig2_fps_traces",
    "fig4_v_sweep",
    "fig5_convergence",
    "fig5c_time_to_accuracy",
    "fig6_arrival_sweep",
    "scenario_policy_rows",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Scaling of the paper's simulation setting.

    Attributes:
        num_users: fleet size (25 in the paper).
        total_slots: horizon in 1-second slots (10 800 in the paper).
        app_arrival_prob: per-slot arrival probability (0.001 in the paper).
        seed: master seed.
        eval_interval_slots: accuracy-evaluation cadence.
    """

    num_users: int = 25
    total_slots: int = 10_800
    app_arrival_prob: float = 0.001
    seed: int = 0
    eval_interval_slots: int = 300

    @classmethod
    def paper(cls, seed: int = 0) -> "ExperimentScale":
        """The exact Section VII.B setting."""
        return cls(seed=seed)

    @classmethod
    def benchmark(cls, seed: int = 0) -> "ExperimentScale":
        """A laptop-friendly scale: 1-hour horizon, same fleet size.

        The arrival probability is tripled so each user still sees a similar
        number of co-running opportunities per run as in the 3-hour setting.
        """
        return cls(
            num_users=25,
            total_slots=3600,
            app_arrival_prob=0.003,
            seed=seed,
            eval_interval_slots=300,
        )

    @classmethod
    def smoke(cls, seed: int = 0) -> "ExperimentScale":
        """A seconds-scale setting for unit tests and CI smoke runs."""
        return cls(
            num_users=8,
            total_slots=900,
            app_arrival_prob=0.01,
            seed=seed,
            eval_interval_slots=300,
        )


def paper_config(scale: Optional[ExperimentScale] = None, **overrides) -> SimulationConfig:
    """Build a :class:`SimulationConfig` for the given scale."""
    scale = scale or ExperimentScale.paper()
    config = SimulationConfig(
        num_users=scale.num_users,
        total_slots=scale.total_slots,
        app_arrival_prob=scale.app_arrival_prob,
        seed=scale.seed,
        eval_interval_slots=scale.eval_interval_slots,
    )
    if overrides:
        config = config.scaled(**overrides)
    return config


def run_policy(config: SimulationConfig, policy: SchedulingPolicy) -> SimulationResult:
    """Run one simulation of ``policy`` under ``config``."""
    return SimulationEngine(config, policy).run()


def _grid_results(
    config: SimulationConfig,
    policy_specs: Sequence[Tuple[str, Dict]],
    jobs: int,
    config_overrides: Optional[Sequence[Dict]] = None,
) -> List[SimulationResult]:
    """Run (policy, kwargs) cells through the parallel experiment suite.

    Args:
        config: base configuration shared by every cell.
        policy_specs: ``(policy_name, policy_kwargs)`` per cell.
        jobs: worker processes for :class:`~repro.analysis.runner.ExperimentSuite`.
        config_overrides: optional per-cell config overrides, aligned with
            ``policy_specs``.
    """
    from repro.analysis.runner import ExperimentSuite, RunSpec

    base = dataclasses.asdict(config)
    specs = []
    for index, (name, kwargs) in enumerate(policy_specs):
        cell_config = dict(base)
        if config_overrides is not None:
            cell_config.update(config_overrides[index])
        specs.append(RunSpec(policy=name, policy_kwargs=dict(kwargs), config=cell_config))
    return ExperimentSuite(jobs=jobs).map_results(specs)


# ---------------------------------------------------------------------------
# Table II and Table III
# ---------------------------------------------------------------------------


def table2_rows(table: Optional[MeasurementTable] = None) -> List[Tuple]:
    """Regenerate Table II: per-device, per-app power, time and saving.

    Returns rows of ``(device, app, app_power_w, corun_power_w, corun_time_s,
    derived_saving_pct, reported_saving_pct)``.
    """
    table = table or MeasurementTable()
    rows: List[Tuple] = []
    for device in table.devices():
        rows.append(
            (device, "training", table.training_power(device), None,
             table.training_time(device), None, None)
        )
        for app in table.apps(device):
            row = table.measurement(device, app)
            rows.append(
                (
                    device,
                    app,
                    row.app_power_w,
                    row.corun_power_w,
                    row.corun_time_s,
                    100.0 * table.energy_saving(device, app),
                    100.0 * row.reported_saving,
                )
            )
    return rows


def table3_overhead_rows(table: Optional[MeasurementTable] = None) -> List[Tuple]:
    """Regenerate Table III: idle power, decision power and overhead %."""
    table = table or MeasurementTable()
    rows = []
    for device in table.devices():
        rows.append(
            (
                device,
                table.idle_power(device),
                table.overhead_power(device),
                100.0 * table.decision_overhead(device),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 1 and Fig. 2 (preliminary experiments)
# ---------------------------------------------------------------------------


def fig1_power_schedules(
    devices: Sequence[str] = ("pixel2", "hikey970"),
    seed: int = 0,
    source: str = "table",
) -> List[Tuple]:
    """Fig. 1: energy of separate vs co-running schedules per app.

    Returns rows of ``(device, app, training_separate_j, app_separate_j,
    corunning_j, saving_pct)``.
    """
    profiler = PowerProfiler(seed=seed, source=source)
    rows: List[Tuple] = []
    for device in devices:
        for comparison in profiler.profile_device(device):
            rows.append(
                (
                    device,
                    comparison.app,
                    comparison.training_separate.energy_j,
                    comparison.app_separate.energy_j,
                    comparison.corunning.energy_j,
                    100.0 * comparison.saving_fraction(),
                )
            )
    return rows


def fig2_fps_traces(
    apps: Sequence[str] = ("angrybird", "tiktok"),
    duration_s: int = 250,
    seed: int = 0,
) -> Dict[str, Dict[str, object]]:
    """Fig. 2: FPS traces with and without a co-running training task.

    Returns, per app, the two traces plus mean FPS and relative degradation.
    """
    results: Dict[str, Dict[str, object]] = {}
    for app in apps:
        generator = FpsTraceGenerator.for_app_name(app, seed=seed)
        alone = generator.trace(duration_s, corunning=False)
        corun = generator.trace(duration_s, corunning=True)
        results[app] = {
            "alone": [(s.time_s, s.fps) for s in alone],
            "corunning": [(s.time_s, s.fps) for s in corun],
            "mean_fps_alone": FpsTraceGenerator.mean_fps(alone),
            "mean_fps_corunning": FpsTraceGenerator.mean_fps(corun),
            "relative_degradation": FpsTraceGenerator.relative_degradation(alone, corun),
        }
    return results


# ---------------------------------------------------------------------------
# Fig. 4: energy vs V, queue backlogs, energy-staleness trade-off
# ---------------------------------------------------------------------------


@dataclass
class VSweepResult:
    """Everything the four panels of Fig. 4 need."""

    baselines: Dict[str, SimulationResult]
    sweeps: Dict[float, List[SweepPoint]]
    results: Dict[Tuple[float, float], SimulationResult] = field(default_factory=dict)

    def baseline_energy_kj(self, name: str) -> float:
        return self.baselines[name].total_energy_kj()


def fig4_v_sweep(
    v_values: Sequence[float] = (0.0, 2e4, 4e4, 6e4, 8e4, 1e5),
    staleness_bounds: Sequence[float] = (100.0, 500.0, 1000.0),
    scale: Optional[ExperimentScale] = None,
    offline_lb: float = 1000.0,
    offline_window: int = 500,
    jobs: int = 1,
) -> VSweepResult:
    """Fig. 4: sweep the control knob ``V`` for several staleness bounds.

    Runs the Immediate, Sync-SGD and Offline baselines once, then the online
    policy for every ``(V, Lb)`` pair; returns per-``Lb`` sweep points of
    (energy, mean Q, mean H) plus the raw results.

    Args:
        jobs: with ``jobs > 1`` the ``3 + |V| x |Lb|`` independent runs fan
            out across processes; results are identical to the sequential
            path (each engine builds the seed-determined dataset).
    """
    config = paper_config(scale)
    grid = [(v, lb) for lb in staleness_bounds for v in v_values]
    if jobs != 1:  # 0/negative = one worker per core (ExperimentSuite resolves it)
        policy_specs = [
            ("immediate", {}),
            ("sync", {}),
            ("offline", {"staleness_bound": offline_lb, "window_slots": offline_window}),
        ] + [
            ("online", {"v": float(v), "staleness_bound": float(lb)}) for v, lb in grid
        ]
        grid_results = _grid_results(config, policy_specs, jobs)
        baselines = dict(zip(("immediate", "sync", "offline"), grid_results[:3]))
        results = dict(zip(grid, grid_results[3:]))
    else:
        baselines = {
            "immediate": run_policy(config, ImmediatePolicy()),
            "sync": run_policy(config, SyncPolicy()),
            "offline": run_policy(
                config,
                OfflinePolicy(staleness_bound=offline_lb, window_slots=offline_window),
            ),
        }
        results = {
            (v, lb): run_policy(config, OnlinePolicy(v=v, staleness_bound=lb))
            for v, lb in grid
        }
    sweeps: Dict[float, List[SweepPoint]] = {}
    for lb in staleness_bounds:
        sweeps[lb] = [
            SweepPoint(
                v=v,
                energy_kj=results[(v, lb)].total_energy_kj(),
                mean_queue=results[(v, lb)].mean_queue_length(),
                mean_virtual_queue=results[(v, lb)].mean_virtual_queue_length(),
            )
            for v in v_values
        ]
    return VSweepResult(baselines=baselines, sweeps=sweeps, results=results)


# ---------------------------------------------------------------------------
# Fig. 5: staleness traces and convergence
# ---------------------------------------------------------------------------


def fig5_convergence(
    scale: Optional[ExperimentScale] = None,
    v: float = 4000.0,
    staleness_bound: float = 500.0,
    offline_lb: float = 1000.0,
    offline_window: int = 500,
) -> Dict[str, SimulationResult]:
    """Fig. 5(a)(b)(d): run the four schemes with identical workloads.

    Returns the results keyed by policy name; gap traces, update lags and the
    accuracy curves are available on each result's ``trace`` and ``accuracy``.
    """
    config = paper_config(scale)
    return {
        "online": run_policy(config, OnlinePolicy(v=v, staleness_bound=staleness_bound)),
        "offline": run_policy(
            config,
            OfflinePolicy(staleness_bound=offline_lb, window_slots=offline_window),
        ),
        "immediate": run_policy(config, ImmediatePolicy()),
        "sync": run_policy(config, SyncPolicy()),
    }


def fig5c_time_to_accuracy(
    targets: Sequence[float] = (0.40, 0.45, 0.50, 0.55),
    seeds: Sequence[int] = (0, 1, 2),
    scale: Optional[ExperimentScale] = None,
    v: float = 4000.0,
    staleness_bound: float = 500.0,
    jobs: int = 1,
) -> Dict[str, Dict[float, List[Optional[float]]]]:
    """Fig. 5(c): wall-clock time to reach each accuracy objective.

    Returns ``{policy: {target: [time_per_seed ...]}}`` where ``None`` marks
    runs that never reached the target within the horizon (the paper reports
    the same for Sync-SGD at the 55% objective).

    Args:
        jobs: with ``jobs > 1`` the ``4 x |seeds|`` runs fan out across
            processes (results are seed-deterministic either way).
    """
    base_scale = scale or ExperimentScale.paper()
    policy_order = ("online", "offline", "immediate", "sync")
    per_seed_results: List[Dict[str, SimulationResult]] = []
    if jobs != 1:  # 0/negative = one worker per core (ExperimentSuite resolves it)
        policy_specs = []
        config_overrides = []
        for seed in seeds:
            policy_specs.extend(
                [
                    ("online", {"v": v, "staleness_bound": staleness_bound}),
                    ("offline", {"staleness_bound": 1000.0, "window_slots": 500}),
                    ("immediate", {}),
                    ("sync", {}),
                ]
            )
            config_overrides.extend([{"seed": seed}] * 4)
        grid_results = _grid_results(
            paper_config(base_scale), policy_specs, jobs, config_overrides
        )
        for index in range(len(seeds)):
            chunk = grid_results[4 * index : 4 * index + 4]
            per_seed_results.append(dict(zip(policy_order, chunk)))
    else:
        for seed in seeds:
            run_scale = ExperimentScale(
                num_users=base_scale.num_users,
                total_slots=base_scale.total_slots,
                app_arrival_prob=base_scale.app_arrival_prob,
                seed=seed,
                eval_interval_slots=base_scale.eval_interval_slots,
            )
            per_seed_results.append(
                fig5_convergence(run_scale, v=v, staleness_bound=staleness_bound)
            )
    table: Dict[str, Dict[float, List[Optional[float]]]] = {}
    for results in per_seed_results:
        for name, result in results.items():
            for target in targets:
                table.setdefault(name, {}).setdefault(target, []).append(
                    result.time_to_accuracy(target)
                )
    return table


# ---------------------------------------------------------------------------
# Fig. 6: impact of the application arrival rate
# ---------------------------------------------------------------------------


def fig6_arrival_sweep(
    arrival_probs: Sequence[float] = (1e-4, 1e-3, 1e-2, 5e-2, 1e-1, 2e-1),
    scale: Optional[ExperimentScale] = None,
    v: float = 4000.0,
    staleness_bound: float = 500.0,
    offline_lb: float = 1000.0,
    jobs: int = 1,
) -> Dict[str, List[Tuple[float, float, float]]]:
    """Fig. 6: energy and accuracy versus the application arrival probability.

    Returns ``{policy: [(arrival_prob, energy_kj, final_accuracy), ...]}`` for
    the Online, Immediate and Offline schemes.

    Args:
        jobs: with ``jobs > 1`` the ``3 x |arrival_probs|`` runs fan out
            across processes; results are identical to the sequential path.
    """
    base_scale = scale or ExperimentScale.paper()
    policy_order = ("online", "immediate", "offline")
    output: Dict[str, List[Tuple[float, float, float]]] = {
        name: [] for name in policy_order
    }
    if jobs != 1:  # 0/negative = one worker per core (ExperimentSuite resolves it)
        policy_specs = []
        config_overrides = []
        for prob in arrival_probs:
            policy_specs.extend(
                [
                    ("online", {"v": v, "staleness_bound": staleness_bound}),
                    ("immediate", {}),
                    ("offline", {"staleness_bound": offline_lb}),
                ]
            )
            config_overrides.extend([{"app_arrival_prob": prob}] * 3)
        grid_results = _grid_results(
            paper_config(base_scale), policy_specs, jobs, config_overrides
        )
        for index, prob in enumerate(arrival_probs):
            chunk = grid_results[3 * index : 3 * index + 3]
            for name, result in zip(policy_order, chunk):
                output[name].append(
                    (prob, result.total_energy_kj(), result.final_accuracy())
                )
        return output
    for prob in arrival_probs:
        config = paper_config(base_scale, app_arrival_prob=prob)
        runs = {
            "online": run_policy(config, OnlinePolicy(v=v, staleness_bound=staleness_bound)),
            "immediate": run_policy(config, ImmediatePolicy()),
            "offline": run_policy(config, OfflinePolicy(staleness_bound=offline_lb)),
        }
        for name, result in runs.items():
            output[name].append((prob, result.total_energy_kj(), result.final_accuracy()))
    return output


# ---------------------------------------------------------------------------
# Scenario gallery
# ---------------------------------------------------------------------------


def scenario_policy_rows(
    scenario,
    policies: Sequence[str] = ("immediate", "sync", "offline", "online"),
    v: float = 4000.0,
    staleness_bound: float = 500.0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    carbon_intensity=None,
    metrics_store=None,
) -> List[Tuple]:
    """All scheduling schemes on one named scenario, as report-ready rows.

    The scenario-subsystem sibling of the Fig. 5 comparison: every policy
    runs on the *same compiled population* (identical devices, arrivals,
    connectivity, batteries and shards), so differences are attributable to
    scheduling alone.  Returns one
    ``(policy, energy_kj, saving_vs_first_pct, updates, final_accuracy[,
    carbon_g])`` tuple per policy; the saving column is relative to the
    first policy in ``policies``.

    The rows are read back from a :class:`repro.metrics.store.MetricsStore`
    rather than straight off the in-memory summaries — the sweep ingests
    into the store (an ephemeral in-memory one by default), so the report
    path and the persisted-analytics path can never drift apart.

    Args:
        scenario: registry name, :class:`~repro.scenarios.spec.ScenarioSpec`
            or compiled scenario.
        carbon_intensity: when set, appends a CO2-equivalent grams column
            (see :func:`repro.analysis.runner.annotate_carbon`).
        metrics_store: a store (or path) to persist the sweep's summaries
            into; ``None`` uses a throwaway in-memory store.
    """
    from repro.analysis.runner import annotate_carbon
    from repro.metrics.store import MetricsStore, as_store
    from repro.scenarios.runner import ScenarioRunner

    store = as_store(metrics_store)
    if store is None:
        store = MetricsStore(":memory:")
    runner = ScenarioRunner(cache_dir=cache_dir, jobs=jobs, metrics_store=store)
    summaries = runner.sweep_policies(
        scenario,
        policies=policies,
        online_kwargs={"v": v, "staleness_bound": staleness_bound},
    )
    if carbon_intensity is not None:
        annotate_carbon(summaries, carbon_intensity)
        for summary in summaries:  # idempotent upsert; carbon_g now set
            store.ingest_run(summary)
    baseline = store.run(summaries[0].spec_hash) or {}
    baseline_j = baseline.get("energy_j") or 0.0
    rows: List[Tuple] = []
    for policy, summary in zip(policies, summaries):
        row_data = store.run(summary.spec_hash) or {}
        energy_j = row_data.get("energy_j") or 0.0
        saving = 100.0 * (1.0 - energy_j / baseline_j) if baseline_j > 0 else 0.0
        row = [
            policy,
            row_data.get("energy_kj"),
            saving,
            row_data.get("num_updates"),
            row_data.get("final_accuracy"),
        ]
        if carbon_intensity is not None:
            row.append(row_data.get("carbon_g"))
        rows.append(tuple(row))
    return rows

"""Parallel experiment orchestration with disk-cached, reproducible results.

The paper's evaluation artefacts are *grids* of independent simulation runs:
Fig. 4 sweeps the control knob ``V`` for three staleness budgets, Fig. 5(c)
repeats four schemes over several seeds, Fig. 6 sweeps the application
arrival probability.  Every run is deterministic given its configuration, so
the grid is embarrassingly parallel and its results are cacheable.  This
module supplies both pieces:

* :class:`RunSpec` — one cell of a grid: a policy (by name, with kwargs), a
  :class:`~repro.sim.config.SimulationConfig` override dict, the shard count
  and the trace level.  A spec has a canonical JSON form and a stable content hash.
* :class:`RunSummary` — the headline numbers of one finished run (energy,
  accuracy, queue backlogs, decision counts, ...), JSON-serialisable so it
  can live in the on-disk cache.
* :class:`ExperimentSuite` — fans a list of specs across ``multiprocessing``
  workers, short-circuiting specs whose summary is already cached under
  their config hash.  ``jobs=1`` degrades to a plain sequential loop.
* :func:`sweep_grid` — builds the online scheduler's (seed, V) grid that
  ``repro-sim sweep`` runs.

Determinism: a worker rebuilds the synthetic dataset from the config seed,
so the same spec produces the same :class:`~repro.sim.engine.SimulationResult`
whether it runs in-process, in a worker, or under a different ``--jobs``
setting (``tests/test_runner.py`` enforces this).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import __version__ as REPRO_VERSION
from repro.core.offline import OfflinePolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import ImmediatePolicy, SchedulingPolicy, SyncPolicy
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationResult, build_engine
from repro.sim.shard import default_start_method

__all__ = [
    "RunSpec",
    "RunSummary",
    "ExperimentSuite",
    "annotate_carbon",
    "execute_spec",
    "make_policy",
    "run_spec",
    "summarize_result",
    "sweep_grid",
]

#: Bump to invalidate previously cached summaries when their schema changes.
#: 3: ``shards`` and ``trace_level`` joined the canonical spec payload.
#: 4: ``backend`` left it.
#: 5: ``batched_training`` left it.
#: 6: ``comm_failures`` left the summary.
CACHE_VERSION = 6

#: Registered policy constructors, keyed by the CLI / spec name.
_POLICY_FACTORIES = {
    "immediate": ImmediatePolicy,
    "sync": SyncPolicy,
    "offline": OfflinePolicy,
    "online": OnlinePolicy,
}


def make_policy(name: str, **kwargs) -> SchedulingPolicy:
    """Instantiate a scheduling policy by its canonical name.

    Args:
        name: one of ``immediate``, ``sync``, ``offline``, ``online``.
        kwargs: forwarded to the policy constructor (e.g. ``v``,
            ``staleness_bound`` for the online scheduler).
    """
    try:
        factory = _POLICY_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; known: {sorted(_POLICY_FACTORIES)}"
        ) from None
    return factory(**kwargs)


@dataclass
class RunSpec:
    """One fully-specified simulation run inside an experiment grid.

    Attributes:
        policy: policy name understood by :func:`make_policy`.
        policy_kwargs: constructor arguments for the policy (``V``, ``Lb``,
            the offline window, ...).
        config: :class:`~repro.sim.config.SimulationConfig` field overrides;
            unspecified fields keep the paper's Section VII.B defaults.
        shards: partition the population across this many worker processes
            (:class:`repro.sim.shard.ShardedEngine`); ``1`` (default) runs
            the single-process engine.  Any shard count produces a bitwise-
            identical summary, but the
            knob is still part of the cache key — an execution-mode switch
            must never silently serve summaries simulated by a different
            engine.
        trace_level: telemetry volume (``full``/``summary``/``off``; see
            :data:`repro.sim.trace.TRACE_LEVELS`).  ``summary`` bounds the
            memory of megafleet runs; queue means are then streamed, so the
            level is part of the cache key.
        label: optional display name for tables and progress lines.
    """

    policy: str
    policy_kwargs: Dict[str, Any] = field(default_factory=dict)
    config: Dict[str, Any] = field(default_factory=dict)
    shards: int = 1
    trace_level: str = "full"
    label: Optional[str] = None

    def build_config(self) -> SimulationConfig:
        """Materialize the simulation configuration of this spec."""
        return SimulationConfig(**self.config)

    def build_policy(self) -> SchedulingPolicy:
        """Materialize a fresh policy instance for this spec."""
        return make_policy(self.policy, **self.policy_kwargs)

    def display_name(self) -> str:
        """The label, or a policy/kwargs-derived fallback."""
        if self.label:
            return self.label
        if self.policy_kwargs:
            args = ",".join(f"{k}={v}" for k, v in sorted(self.policy_kwargs.items()))
            return f"{self.policy}({args})"
        return self.policy

    def canonical(self) -> str:
        """Canonical JSON form (sorted keys) used for hashing and caching.

        The display label is deliberately excluded: it does not change the
        simulated system, so relabelled grids still hit the cache.  The
        package version and the shard count are *included*: a code release
        or an execution-mode switch must not silently serve summaries
        simulated by different code.
        """
        payload = {
            "cache_version": CACHE_VERSION,
            "repro_version": REPRO_VERSION,
            "policy": self.policy,
            "policy_kwargs": self.policy_kwargs,
            "config": self.config,
            "shards": self.shards,
            "trace_level": self.trace_level,
        }
        return json.dumps(payload, sort_keys=True, default=str)

    def config_hash(self) -> str:
        """Stable content hash of the spec (the disk-cache key)."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:16]


@dataclass
class RunSummary:
    """Headline numbers of one finished simulation run.

    Everything the sweep tables and Fig. 4/6-style plots need, without the
    heavyweight traces, so summaries are cheap to cache as JSON and to ship
    back from worker processes.  Energy is reported in kilojoules — the
    unit of the paper's Fig. 4/6 axes and of the ``V`` knob convention
    (see :mod:`repro.core.online`).
    """

    spec_hash: str
    policy: str
    label: str
    energy_j: float
    energy_kj: float
    final_accuracy: float
    best_accuracy: float
    num_updates: int
    decision_evaluations: int
    mean_queue_length: float
    mean_virtual_queue_length: float
    final_virtual_queue_length: float
    schedule_fraction: float
    corun_jobs: int
    background_jobs: int
    comm_bytes_mb: float
    mean_final_battery_soc: float
    wall_time_s: float
    #: Per-subsystem wall-clock shares (training / policy / eval /
    #: slot_loop) from :class:`repro.sim.timers.EngineTimers`; every suite
    #: run is profiled, so sweeps can report where their time went.
    timing_shares: Optional[Dict[str, float]] = None
    #: CO2-equivalent grams of the run's total energy; ``None`` unless the
    #: consumer opted in (``--carbon-intensity`` / :func:`annotate_carbon`).
    #: Derived from ``energy_j`` at reporting time, so cached summaries can
    #: be (re-)annotated under any grid intensity without re-simulation.
    carbon_g: Optional[float] = None
    from_cache: bool = False

    def to_json(self) -> str:
        """Serialize for the on-disk cache."""
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "RunSummary":
        """Rebuild a summary previously written by :meth:`to_json`."""
        return cls(**json.loads(payload))


def execute_spec(
    spec: RunSpec, checkpointer=None, resume_from=None, fault_injector=None
) -> SimulationResult:
    """Execute one spec, optionally checkpointing and/or resuming.

    The engine-dispatch twin of :func:`run_spec` used by the experiment
    service (:mod:`repro.service.jobs`): ``checkpointer`` is threaded into
    the engine's slot loop, and ``resume_from`` (an
    :class:`~repro.service.checkpoint.EngineCheckpoint`) restores the
    matching engine — honouring the spec's ``shards`` layout, which may
    differ from the layout that wrote the checkpoint — and continues the
    run bitwise-identically to an uninterrupted one.  ``fault_injector``
    (chaos testing, :mod:`repro.faults`) reaches the sharded engine's
    workers; the supervised engine recovers from the injected faults with
    results unchanged.
    """
    engine = build_engine(
        spec.build_config(),
        spec.build_policy(),
        shards=spec.shards,
        resume_from=resume_from,
        profile=True,
        trace_level=spec.trace_level,
        fault_injector=fault_injector,
    )
    return engine.run(checkpointer)


def run_spec(spec: RunSpec) -> SimulationResult:
    """Execute one spec and return the full :class:`SimulationResult`.

    Module-level (not a method) so ``multiprocessing`` can pickle it by
    reference; every engine builds its dataset from the config seed, so a
    worker reproduces an in-process run exactly.
    ``shards > 1`` runs the sharded engine
    (:class:`repro.sim.shard.ShardedEngine`) — same results, partitioned
    execution.
    """
    return execute_spec(spec)


def summarize_result(
    spec: RunSpec, result: SimulationResult, wall_time_s: float = 0.0
) -> RunSummary:
    """Condense a full simulation result into a cacheable summary."""
    return RunSummary(
        spec_hash=spec.config_hash(),
        policy=spec.policy,
        label=spec.display_name(),
        energy_j=result.total_energy_j(),
        energy_kj=result.total_energy_kj(),
        final_accuracy=result.final_accuracy(),
        best_accuracy=result.best_accuracy(),
        num_updates=result.num_updates,
        decision_evaluations=result.decision_evaluations,
        mean_queue_length=result.mean_queue_length(),
        mean_virtual_queue_length=result.mean_virtual_queue_length(),
        final_virtual_queue_length=result.final_virtual_queue_length(),
        schedule_fraction=result.trace.schedule_fraction(),
        corun_jobs=result.trace.corun_jobs,
        background_jobs=result.trace.background_jobs,
        comm_bytes_mb=result.comm_bytes_mb,
        mean_final_battery_soc=result.mean_final_battery_soc(),
        wall_time_s=wall_time_s,
        timing_shares=result.timing_shares(),
    )


def annotate_carbon(summaries: Sequence[RunSummary], intensity) -> List[RunSummary]:
    """Fill :attr:`RunSummary.carbon_g` from each summary's energy total.

    Args:
        summaries: finished (possibly cache-served) run summaries.
        intensity: a :data:`repro.energy.carbon.GRID_INTENSITIES` region
            name, a numeric grid intensity in gCO2e/kWh, or a
            :class:`~repro.energy.carbon.CarbonIntensity`.

    Returns:
        The same summary objects, annotated in place, for chaining.
    """
    from repro.energy.carbon import CarbonAccountant, CarbonIntensity

    if isinstance(intensity, (int, float)):
        intensity = CarbonIntensity("custom", float(intensity))
    accountant = CarbonAccountant(intensity)
    for summary in summaries:
        summary.carbon_g = accountant.grams_co2(summary.energy_j)
    return list(summaries)


def _execute_summary(spec: RunSpec) -> RunSummary:
    """Worker entry point: run one spec and summarise it."""
    start = time.perf_counter()  # reprolint: allow(wall-clock): wall_time_s reporting, not sim state
    result = run_spec(spec)
    wall_s = time.perf_counter() - start  # reprolint: allow(wall-clock): wall_time_s reporting, not sim state
    return summarize_result(spec, result, wall_time_s=wall_s)


class ExperimentSuite:
    """Fan a grid of simulation runs across processes, with a disk cache.

    Args:
        cache_dir: directory for cached :class:`RunSummary` JSON files,
            keyed by :meth:`RunSpec.config_hash`; ``None`` disables caching.
        jobs: worker processes, started with
            :func:`~repro.sim.shard.default_start_method`. ``1`` runs
            sequentially in-process; ``0`` or negative resolves to
            ``os.cpu_count()``.
        metrics_store: optional :class:`repro.metrics.store.MetricsStore`
            (or a path for one); every summary this suite produces — cached
            and fresh alike — is ingested into it, so cross-run queries and
            regression checks read one durable place.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        jobs: int = 1,
        metrics_store: Any = None,
    ) -> None:
        self.cache_dir = cache_dir
        self.jobs = jobs if jobs > 0 else (os.cpu_count() or 1)
        from repro.metrics.store import as_store  # local: keep import cycle-free

        self.metrics = as_store(metrics_store)

    # -- cache -------------------------------------------------------------------

    def _cache_path(self, spec: RunSpec) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, f"{spec.config_hash()}.json")

    def load_cached(self, spec: RunSpec) -> Optional[RunSummary]:
        """The cached summary for ``spec``, or ``None`` on a cache miss."""
        path = self._cache_path(spec)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                summary = RunSummary.from_json(handle.read())
        except (OSError, ValueError, TypeError, KeyError):
            return None  # unreadable/stale entry: fall through to a re-run
        summary.from_cache = True
        return summary

    def store(self, spec: RunSpec, summary: RunSummary) -> None:
        """Persist a summary under the spec's config hash (atomic rename)."""
        path = self._cache_path(spec)
        if path is None:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        tmp_path = f"{path}.tmp.{os.getpid()}"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(summary.to_json())
        os.replace(tmp_path, path)

    # -- execution -----------------------------------------------------------------

    def _map(self, function, items: Sequence) -> List:
        """Order-preserving map, sequential or across a process pool."""
        if self.jobs <= 1 or len(items) <= 1:
            return [function(item) for item in items]
        context = multiprocessing.get_context(default_start_method())
        with context.Pool(processes=min(self.jobs, len(items))) as pool:
            return pool.map(function, items)

    def run(self, specs: Sequence[RunSpec], refresh: bool = False) -> List[RunSummary]:
        """Run a grid of specs, returning one summary per spec, in order.

        Cached specs are served from disk without simulating; the remaining
        specs are executed across the worker pool and their summaries
        written back to the cache.

        Args:
            specs: the grid cells to run.
            refresh: ignore (and overwrite) existing cache entries.
        """
        summaries: List[Optional[RunSummary]] = [None] * len(specs)
        missing: List[Tuple[int, RunSpec]] = []
        for index, spec in enumerate(specs):
            cached = None if refresh else self.load_cached(spec)
            if cached is not None:
                summaries[index] = cached
            else:
                missing.append((index, spec))
        if missing:
            fresh = self._map(_execute_summary, [spec for _, spec in missing])
            for (index, spec), summary in zip(missing, fresh):
                self.store(spec, summary)
                summaries[index] = summary
        if self.metrics is not None:
            # Cached and fresh summaries alike: re-ingest is idempotent
            # (the store upserts by spec hash).
            for spec, summary in zip(specs, summaries):
                if summary is not None:
                    self.metrics.ingest_run(summary, spec=spec)
        return list(summaries)  # type: ignore[arg-type]

    def map_results(self, specs: Sequence[RunSpec]) -> List[SimulationResult]:
        """Run specs and return *full* results (never cached).

        For consumers that need traces and accuracy curves — the Fig. 4/5/6
        runners — rather than headline summaries.
        """
        return self._map(run_spec, specs)


def sweep_grid(
    v_values: Sequence[float],
    seeds: Sequence[int] = (0,),
    staleness_bound: float = 500.0,
    base_config: Optional[Dict[str, Any]] = None,
    shards: int = 1,
    trace_level: str = "full",
) -> List[RunSpec]:
    """The online scheduler's (seed, V) grid of :class:`RunSpec`, seed-major.

    Args:
        v_values: Lyapunov control-knob values for the online scheduler.
        seeds: master seeds.
        staleness_bound: ``Lb`` handed to the online scheduler.
        base_config: shared :class:`SimulationConfig` overrides.
        shards: population shard count for every spec (1 = single-process).
        trace_level: telemetry volume for every spec.
    """
    base = dict(base_config or {})
    suffixes = [f" seed={seed}" if len(seeds) > 1 else "" for seed in seeds]
    return [
        RunSpec(
            policy="online",
            policy_kwargs={"v": float(v), "staleness_bound": float(staleness_bound)},
            config=dict(base, seed=seed),
            shards=shards,
            trace_level=trace_level,
            label=f"online V={v:g}{suffix}",
        )
        for seed, suffix in zip(seeds, suffixes)
        for v in v_values
    ]

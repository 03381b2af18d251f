"""The slotted simulation engine (the Section VII.B evaluation harness).

One engine instance simulates the full federated system for one scheduling
policy: the device fleet, application arrivals, the scheduling decisions, the
actual NumPy model training, the parameter server, the staleness bookkeeping
and the energy accounting.  The timeline of one slot is:

1. expire finished foreground applications and launch newly-arriving ones;
2. hand the policy a :class:`~repro.core.policies.SlotContext` and one
   :class:`~repro.core.policies.ObservationBatch` holding every *ready* user
   (model downloaded, no training job running); start training jobs for the
   users it schedules and apply the Eq. (12) gap dynamics;
3. advance every device by one slot, accumulating the Eq. (10) energy;
   finished jobs run their local epoch (momentum SGD on the user's shard)
   and upload to the parameter server, which applies the asynchronous rule
   (or buffers the update until the synchronous round completes);
4. update the policy queues with the slot's arrivals, services and gap sum;
5. sample the traces and periodically evaluate the global model.

Staleness semantics: a user *downloads* the global model the moment it
becomes ready (Definition 1 measures lag from that instant), so waiting for
a co-running opportunity increases both the lag and the gradient gap of the
eventual update — exactly the trade-off the schedulers navigate.
"""

from __future__ import annotations

import os
import threading
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.offline import OfflinePolicy
from repro.core.policies import SchedulingPolicy
from repro.device.models import DeviceSpec, build_device_fleet
from repro.energy.battery import Battery
from repro.energy.measurements import MeasurementTable
from repro.energy.power_model import PowerModel
from repro.fl.blas import pin_blas_threads
from repro.fl.client import FLClient
from repro.fl.dataset import (
    Partition,
    SyntheticCifar10,
    partition_dirichlet,
    partition_iid,
    partition_mixed,
)
from repro.fl.metrics import AccuracyTracker
from repro.fl.model import Sequential, build_mlp
from repro.fl.server import AsyncUpdateRule, ParameterServer
from repro.sim.arrivals import (
    ArrivalSchedule,
    BernoulliArrivalProcess,
    DiurnalArrivalProcess,
    build_arrival_processes,
    specs_key,
)
from repro.sim.config import SimulationConfig
from repro.sim.coupling import MODEL_SIZE_MB, CouplingCore
from repro.sim.fleet import FleetEnergyAccountant
from repro.sim.rng import spawn_generators
from repro.sim.timers import EngineTimers
from repro.sim.trace import TRACE_LEVELS, SimulationTrace

__all__ = [
    "Coordinator",
    "RNG_STREAM_NAMES",
    "SimulationEngine",
    "SimulationResult",
    "build_arrival_schedule",
    "build_batteries",
    "build_clients",
    "build_dataset",
    "build_device_specs",
    "build_engine",
    "build_eval_model",
    "build_partitions",
    "build_population",
    "build_rngs",
    "install_coordinator",
    "restore_engine",
]

#: The independent RNG streams every build derives from the master seed.
#: One list, used by the engine, the sharded coordinator and the shard
#: workers alike — adding a stream in one place cannot silently desynchronise
#: the others (each name is an independent child generator, so consumers may
#: ignore streams they do not draw from).
RNG_STREAM_NAMES = (
    "devices",
    "arrivals",
    "dataset",
    "clients",
    "network",  # no longer drawn; children spawn by position, so dropping it reseeds "apps"
    "apps",
)

_T = TypeVar("_T")

#: The static inputs alive in this process, by content: the dataset and the
#: arrival schedule of every configuration some engine still holds.  An
#: entry dies with the last engine holding it.
_STATIC: "weakref.WeakValueDictionary[Hashable, Any]" = weakref.WeakValueDictionary()
_STATIC_LOCK = threading.Lock()


def _reset_static_lock() -> None:
    """A forked child starts with the lock free, whatever a parent thread held."""
    global _STATIC_LOCK
    _STATIC_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_static_lock)


def _shared(key: Hashable, build: Callable[[], _T]) -> _T:
    """The live object built for ``key``, else a new one from ``build()``.

    ``build`` must be a pure function of ``key`` — it seeds its own
    generators from :func:`build_rngs` — so an engine handed a live object
    holds bit for bit what it would have built.  Builds run under the lock:
    two threads building one configuration get one object.
    """
    with _STATIC_LOCK:
        value = _STATIC.get(key)
        if value is None:
            value = build()
            _STATIC[key] = value
        return value


# ---------------------------------------------------------------------------
# Component builders
#
# The engine's constructor used to assemble the whole simulated system
# inline; these module-level builders are the same construction steps made
# reusable, so a shard worker process (repro.sim.shard) can rebuild exactly
# the slice of the system it owns — same RNG streams, same objects, same
# bits — without a second copy of the logic.
# ---------------------------------------------------------------------------


def _battery_capacities(config: SimulationConfig) -> Sequence[Optional[float]]:
    """Per-user capacities: the per-user override, else the global knob."""
    if config.user_battery_capacity_j is not None:
        return config.user_battery_capacity_j
    return [config.battery_capacity_j] * config.num_users


def build_batteries(
    config: SimulationConfig, device_specs: Sequence[DeviceSpec]
) -> List[Optional[Battery]]:
    """Per-user batteries (or ``None``) exactly as the engine wires them.

    Dev boards are bench-powered and never gated.  Per-user
    capacities/rates (the scenario compiler's heterogeneous fleets) override
    the global knobs; a ``None`` capacity entry means no battery at all.
    Deterministic in ``config`` — no RNG stream is consumed.
    """
    capacities = _battery_capacities(config)
    if config.user_charge_rate_w is not None:
        charge_rates = list(config.user_charge_rate_w)
    else:
        charge_rates = [config.battery_charge_rate_w] * config.num_users
    batteries: List[Optional[Battery]] = []
    for user, spec in enumerate(device_specs):
        if capacities[user] is None or spec.is_dev_board():
            batteries.append(None)
        else:
            batteries.append(
                Battery(
                    capacity_j=capacities[user],
                    charge_j=capacities[user],
                    charge_rate_w=max(charge_rates[user], 0.0),
                    min_participation_soc=config.min_battery_soc,
                )
            )
    return batteries


def fleet_has_batteries(
    config: SimulationConfig, device_specs: Sequence[DeviceSpec]
) -> bool:
    """Whether :func:`build_batteries` would create any battery at all.

    The sharded coordinator only needs this boolean (the Battery objects
    live in the shards), so it is derived from the config without
    materialising a population's worth of instances.
    """
    return any(
        capacity is not None and not spec.is_dev_board()
        for capacity, spec in zip(_battery_capacities(config), device_specs)
    )


def build_rngs(config: SimulationConfig):
    """The named component generators derived from the master seed."""
    return spawn_generators(config.seed, list(RNG_STREAM_NAMES))


def build_eval_model(config: SimulationConfig, input_dim: int) -> Sequential:
    """A fresh model with the run's canonical seed initialisation.

    The clients' training workspace and the server's initial parameters come
    from this same construction, so the coordinator and any worker agree on the
    initial global model bit for bit.
    """
    return build_mlp(
        input_dim=input_dim,
        hidden_dims=config.hidden_dims,
        num_classes=config.num_classes,
        seed=config.seed,
    )


def build_device_specs(config: SimulationConfig, rng) -> List[DeviceSpec]:
    """Every user's device (consumes the ``devices`` stream)."""
    return build_device_fleet(
        config.num_users, rng, mix=config.device_mix, names=config.device_names
    )


def _read_only_dataset(**arguments: Any) -> SyntheticCifar10:
    """A dataset whose arrays refuse writes: it may be shared."""
    dataset = SyntheticCifar10(**arguments)
    for value in vars(dataset).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return dataset


def build_dataset(config: SimulationConfig) -> SyntheticCifar10:
    """The synthetic dataset of this configuration, read-only and shared by
    every engine of the process whose configuration gives the same nine
    :class:`SyntheticCifar10` arguments."""
    arguments = dict(
        num_train=config.num_train_samples,
        num_test=config.num_test_samples,
        num_classes=config.num_classes,
        feature_dim=config.feature_dim,
        class_separation=config.class_separation,
        noise_std=config.noise_std,
        label_noise=config.label_noise,
        clusters_per_class=config.clusters_per_class,
        seed=config.seed,
    )
    return _shared(
        ("dataset",) + tuple(arguments.values()),
        lambda: _read_only_dataset(**arguments),
    )


def build_partitions(config: SimulationConfig, dataset: SyntheticCifar10, rng) -> Partition:
    """The full-population data partition (consumes the ``dataset`` stream)."""
    x_train, y_train = dataset.train_set()
    if config.user_data_alpha is not None:
        return partition_mixed(
            x_train,
            y_train,
            config.user_data_alpha,
            rng,
            num_classes=config.num_classes,
        )
    if config.non_iid_alpha is None:
        return partition_iid(x_train, y_train, config.num_users, rng)
    return partition_dirichlet(
        x_train,
        y_train,
        config.num_users,
        rng,
        alpha=config.non_iid_alpha,
        num_classes=config.num_classes,
    )


def build_clients(
    config: SimulationConfig,
    dataset: SyntheticCifar10,
    partition: Partition,
    lo: int = 0,
    hi: Optional[int] = None,
) -> FLClient:
    """The FL client plane of users ``[lo, hi)`` (the whole fleet by default).

    The plane reads the dataset's own arrays through the range's slice of
    the partition order, so it holds no copy of a sample.  The range trains
    in one model workspace (a local round loads the download first and
    reads its result out last, so the model carries nothing between rounds
    or users); momentum, round counter and a ``(seed, user)``-salted
    shuffling generator are per user, so the construction is
    slice-independent: building users 40..80 yields the same 40 clients
    whether or not the rest of the fleet is built.
    """
    hi = config.num_users if hi is None else hi
    workspace = build_eval_model(config, dataset.input_dim())
    x_train, y_train = dataset.train_set()
    offsets = partition.offsets[lo : hi + 1]
    return FLClient(
        x_train,
        y_train,
        partition.order[offsets[0] : offsets[-1]],
        offsets - offsets[0],
        workspace,
        lo=lo,
        learning_rate=config.learning_rate,
        momentum=config.momentum,
        batch_size=config.batch_size,
        local_epochs=config.local_epochs,
        seed=config.seed + 1000,
    )


def build_arrival_schedule(
    config: SimulationConfig, table: MeasurementTable
) -> ArrivalSchedule:
    """The pre-generated application arrivals, shared by every engine of the
    process whose configuration gives the same arrival fields, the same
    device-fleet inputs and the same measurement table."""
    key = (
        "arrivals",
        config.seed,
        config.num_users,
        config.total_slots,
        config.slot_seconds,
        config.app_arrival_prob,
        config.diurnal_arrivals,
        None if config.user_arrivals is None else specs_key(config.user_arrivals),
        None if config.app_weights is None else tuple(config.app_weights),
        None if config.device_mix is None else tuple(config.device_mix.items()),
        None if config.device_names is None else tuple(config.device_names),
        tuple(table.rows()),
    )
    return _shared(key, lambda: _generate_arrivals(config, table))


def _generate_arrivals(config: SimulationConfig, table: MeasurementTable) -> ArrivalSchedule:
    """Draw the schedule from the ``devices`` and ``arrivals`` streams."""
    rngs = build_rngs(config)
    if config.user_arrivals is not None:
        process = build_arrival_processes(config.user_arrivals)
    elif config.diurnal_arrivals:
        process = DiurnalArrivalProcess(peak_probability=2.0 * config.app_arrival_prob)
    else:
        process = BernoulliArrivalProcess(config.app_arrival_prob)
    return ArrivalSchedule.generate(
        num_users=config.num_users,
        total_slots=config.total_slots,
        slot_seconds=config.slot_seconds,
        process=process,
        device_specs=build_device_specs(config, rngs["devices"]),
        rng=rngs["arrivals"],
        table=table,
        app_weights=config.app_weights,
    )


def _apply_queue_telemetry(policy: SchedulingPolicy, trace_level: str) -> None:
    """Switch the policy's queues between full histories and streamed stats."""
    for name in ("task_queue", "virtual_queue"):
        queue = getattr(policy, name, None)
        if queue is not None and hasattr(queue, "track_history"):
            queue.track_history = trace_level == "full"


def _policy_queue_stats(policy: SchedulingPolicy) -> Optional[Dict[str, float]]:
    """Streamed queue aggregates for results without materialised histories."""
    task_queue = getattr(policy, "task_queue", None)
    virtual_queue = getattr(policy, "virtual_queue", None)
    if task_queue is None and virtual_queue is None:
        return None
    stats: Dict[str, float] = {}
    if task_queue is not None:
        stats["mean_queue"] = float(task_queue.time_average())
    if virtual_queue is not None:
        stats["mean_virtual"] = float(virtual_queue.time_average())
        stats["final_virtual"] = float(virtual_queue.length)
    return stats


@dataclass
class SimulationResult:
    """Everything a benchmark or example needs from one simulation run."""

    config: SimulationConfig
    policy_name: str
    trace: SimulationTrace
    accuracy: AccuracyTracker
    accountant: FleetEnergyAccountant
    num_updates: int
    decision_evaluations: int
    device_names: List[str]
    queue_history: List[float] = field(default_factory=list)
    virtual_queue_history: List[float] = field(default_factory=list)
    comm_bytes_mb: float = 0.0
    final_battery_soc: List[float] = field(default_factory=list)
    timers: Optional[EngineTimers] = None
    #: Streamed queue aggregates (``mean_queue`` / ``mean_virtual`` /
    #: ``final_virtual``) recorded when the run suppressed the per-slot
    #: queue histories (``trace_level`` below ``full``); the accessor
    #: methods fall back to them so headline numbers survive
    #: memory-bounded telemetry.
    queue_stats: Optional[Dict[str, float]] = None

    # -- energy ----------------------------------------------------------------

    def total_energy_j(self) -> float:
        """System-wide total energy in joules."""
        return self.accountant.total_j()

    def total_energy_kj(self) -> float:
        """System-wide total energy in kilojoules (the Fig. 4/6 unit)."""
        return self.accountant.total_kj()

    def energy_saving_vs(self, other: "SimulationResult") -> float:
        """Fractional energy saving of this run relative to ``other``."""
        if other.total_energy_j() <= 0:
            raise ValueError("the baseline run consumed no energy")
        return 1.0 - self.total_energy_j() / other.total_energy_j()

    # -- accuracy -----------------------------------------------------------------

    def final_accuracy(self) -> float:
        """Accuracy of the global model at the end of the run."""
        return self.accuracy.final_accuracy()

    def best_accuracy(self) -> float:
        """Best accuracy reached during the run."""
        return self.accuracy.best_accuracy()

    def time_to_accuracy(self, target: float) -> Optional[float]:
        """First time (s) the global model reached ``target`` accuracy."""
        return self.accuracy.time_to_accuracy(target)

    # -- queues ---------------------------------------------------------------------

    def mean_queue_length(self) -> float:
        """Time-averaged task-queue backlog (0 for queue-less policies)."""
        if self.queue_history:
            return float(np.mean(self.queue_history))
        if self.queue_stats is not None:
            return self.queue_stats.get("mean_queue", 0.0)
        return 0.0

    def mean_virtual_queue_length(self) -> float:
        """Time-averaged virtual-queue backlog (0 for queue-less policies)."""
        if self.virtual_queue_history:
            return float(np.mean(self.virtual_queue_history))
        if self.queue_stats is not None:
            return self.queue_stats.get("mean_virtual", 0.0)
        return 0.0

    def final_virtual_queue_length(self) -> float:
        """Virtual-queue backlog at the end of the run."""
        if self.virtual_queue_history:
            return float(self.virtual_queue_history[-1])
        if self.queue_stats is not None:
            return self.queue_stats.get("final_virtual", 0.0)
        return 0.0

    # -- battery ----------------------------------------------------------------------

    def mean_final_battery_soc(self) -> float:
        """Mean end-of-run state of charge (1.0 when batteries are disabled)."""
        if not self.final_battery_soc:
            return 1.0
        return float(np.mean(self.final_battery_soc))

    # -- profiling -------------------------------------------------------------------

    def timing_shares(self) -> Optional[Dict[str, float]]:
        """Per-subsystem wall-clock shares (``None`` unless run with profiling)."""
        if self.timers is None:
            return None
        return self.timers.shares()


def build_population(
    config: SimulationConfig,
    table: MeasurementTable,
    device_specs: Sequence[DeviceSpec],
    dataset: SyntheticCifar10,
    rng,
    lo: int = 0,
    hi: Optional[int] = None,
) -> Tuple[PowerModel, List[Optional[Battery]], FLClient]:
    """Power model, batteries and client plane of users ``[lo, hi)``.

    ``device_specs`` covers the whole population and ``rng`` is the
    ``dataset`` stream: the partition is drawn for everyone, so a slice gets
    exactly the rows of a full build.
    """
    power_model = PowerModel(table=table)
    batteries = build_batteries(config, device_specs)[lo:hi]
    clients = build_clients(config, dataset, build_partitions(config, dataset, rng), lo, hi)
    return power_model, batteries, clients


class Coordinator:
    """What every engine is: the coupling core plus the static substrate it
    needs, around some residence for the per-user state — one inline shard
    (:class:`SimulationEngine`), worker processes
    (:class:`~repro.sim.shard.ShardedEngine`) or per-user objects (the
    test suite's reference loop).  Written once, here; subclasses add
    ``__init__`` and ``run``.
    """

    def _alias_coupling_state(self) -> None:
        """(Re)bind the core's coupling objects, which a restore replaces, as
        engine attributes — here and nowhere else."""
        core = self.core
        self.policy = core.policy
        self.server = core.server
        self.trace = core.trace
        self.accuracy = core.accuracy

    def build_coordinator(
        self,
        config: SimulationConfig,
        policy: SchedulingPolicy,
        measurement_table: Optional[MeasurementTable],
        profile: bool,
        trace_level: str,
    ):
        """Build the coordinator-side substrate; returns the RNG streams.

        Device specs, calibration table, dataset, evaluation model, arrivals
        and the :class:`CouplingCore` — and nothing per-user: the sharded
        coordinator's clients, partitions, batteries and fleet arrays are
        built inside its workers.  The dataset and the arrivals are shared
        with every live engine of the same configuration
        (:func:`build_dataset`, :func:`build_arrival_schedule`).
        """
        if trace_level not in TRACE_LEVELS:
            raise ValueError(
                f"unknown trace_level {trace_level!r}; choose from {TRACE_LEVELS}"
            )
        self.config = config
        self.trace_level = trace_level
        self.timers = EngineTimers(enabled=profile)
        # Before the first gemm of any mode (repro.fl.blas: the thread policy).
        self.timers.blas_threads = pin_blas_threads()
        self.table = measurement_table or MeasurementTable()
        rngs = build_rngs(config)
        self.device_specs = build_device_specs(config, rngs["devices"])
        self._has_batteries = fleet_has_batteries(config, self.device_specs)
        self.dataset = build_dataset(config)
        self.eval_model = build_eval_model(config, self.dataset.input_dim())
        self.arrivals = build_arrival_schedule(config, self.table)
        server = ParameterServer(
            self.eval_model.get_flat_params(),
            async_rule=config.async_rule,
            mixing_alpha=config.mixing_alpha,
        )
        self.core = CouplingCore(
            config=config,
            policy=policy,
            server=server,
            trace=SimulationTrace(
                trace_interval_slots=config.trace_interval_slots,
                level=trace_level,
                updates=server.updates,
            ),
            accuracy=AccuracyTracker(),
            eval_model=self.eval_model,
            dataset=self.dataset,
            timers=self.timers,
        )
        self._alias_coupling_state()
        _apply_queue_telemetry(policy, trace_level)
        self._has_run = False
        #: Checkpoint being resumed from, or ``None`` for a fresh run.
        self._resume = None
        return rngs

    def begin_run(self) -> None:
        """Claim the engine's single run and prepare its policy."""
        if self._has_run:
            raise RuntimeError("this engine has already run; create a new one")
        self._has_run = True
        if self._resume is None:
            self.policy.reset()
            # The one and only oracle attachment, right after the reset: the
            # offline policy receives this run's pre-generated arrival
            # schedule exactly once.  attach_oracle is idempotent and raises
            # if planning already started against a different schedule, so
            # oracle state can never be silently rebuilt mid-experiment —
            # while a policy reused across engines sequentially still works
            # (each run resets first).  A restored run skips both: the
            # checkpointed policy carries its live queue and planning state.
            if isinstance(self.policy, OfflinePolicy):
                self.policy.attach_oracle(self.arrivals)

    def assemble_result(
        self,
        accountant,
        final_battery_soc: List[float],
        worker_training_s: Sequence[float] = (),
        worker_blas_threads: Sequence[Optional[int]] = (),
        fleet_planes: Sequence[Dict[str, int]] = (),
    ) -> SimulationResult:
        """The :class:`SimulationResult` of the finished run.

        ``worker_training_s`` (training seconds each shard *worker process*
        measured) rides beside the coordinator's buckets, never inside them:
        the coordinator was blocked in ``ipc_recv`` for those very seconds.
        ``worker_blas_threads`` is the BLAS thread count of the same workers,
        ``fleet_planes`` each shard's :meth:`FleetState.plane_counters`
        (in-process shards included).
        """
        policy = self.policy
        task_queue = getattr(policy, "task_queue", None)
        virtual_queue = getattr(policy, "virtual_queue", None)
        self.timers.worker_training_s = list(worker_training_s)
        self.timers.worker_blas_threads = list(worker_blas_threads)
        self.timers.fleet_planes = list(fleet_planes)
        return SimulationResult(
            config=self.config,
            policy_name=policy.name,
            trace=self.trace,
            accuracy=self.accuracy,
            accountant=accountant,
            num_updates=self.server.num_updates(),
            decision_evaluations=policy.decision_cost_evaluations(),
            device_names=[spec.name for spec in self.device_specs],
            queue_history=[] if task_queue is None else list(task_queue.history()),
            virtual_queue_history=(
                [] if virtual_queue is None else list(virtual_queue.history())
            ),
            comm_bytes_mb=MODEL_SIZE_MB * self.core.transfers,
            final_battery_soc=final_battery_soc,
            timers=self.timers if self.timers.enabled else None,
            queue_stats=_policy_queue_stats(policy),
        )


def install_coordinator(engine: Coordinator, coordinator) -> None:
    """Bind a materialized checkpoint coordinator into ``engine``'s core."""
    coordinator.install(engine.core, engine.timers)
    engine._alias_coupling_state()


def restore_engine(cls, checkpoint, **kwargs):
    """Rebuild a ``cls`` engine from an
    :class:`~repro.service.checkpoint.EngineCheckpoint`.

    ``cls``'s constructor rebuilds the static substrate bitwise from the
    checkpointed configuration (``kwargs`` are its remaining keywords); the
    captured coupling state is installed over it, and ``run()`` loads the
    per-user slices into the shards it starts.
    """
    coordinator = checkpoint.coordinator.materialize()
    engine = cls(
        checkpoint.config,
        coordinator.policy,
        trace_level=checkpoint.trace_level,
        **kwargs,
    )
    install_coordinator(engine, coordinator)
    engine._resume = checkpoint
    return engine


class SimulationEngine(Coordinator):
    """Simulate the federated mobile system under one scheduling policy.

    The single-process engine: the whole population lives in one in-process
    :class:`~repro.sim.shard.FleetShard`, advanced by the vectorized
    struct-of-arrays kernels of :mod:`repro.sim.fleet` under the slot loop
    it shares verbatim with :class:`~repro.sim.shard.ShardedEngine`
    (:func:`repro.sim.shard.drive_fleet_loop`).  The per-user reference
    loop the kernels are held bitwise-equal to is a test instrument
    (``tests/reference_loop.py``), not part of the package.

    Quiet regions are fast-forwarded: at the top of each slot the loop
    checks whether a region starts there — no pending arrival, a ready pool
    that is empty or that the policy certifies idle
    (:meth:`~repro.core.policies.SchedulingPolicy.idle_slots`), no training
    completion due — and, if so, advances all slots up to the next event in
    one fused kernel (:meth:`repro.sim.fleet.FleetState.advance_quiet`),
    bitwise-identical to running them one by one (``tests/test_fleet.py``
    holds the two to each other).

    Args:
        config: run configuration.
        policy: the scheduling policy to evaluate.
        measurement_table: optionally override the Table II/III calibration.
        profile: collect per-subsystem wall-clock shares
            (:class:`repro.sim.timers.EngineTimers`) — training vs policy vs
            evaluation vs slot mechanics.  Never affects results.
        trace_level: telemetry volume (:data:`repro.sim.trace.TRACE_LEVELS`).
            ``full`` (default) records every series; ``summary`` keeps
            streamed aggregates only — no per-slot samples, no per-user gap
            traces, no queue histories — so megafleet runs stop accumulating
            O(users x slots) telemetry; ``off`` additionally drops the
            per-update samples.  Never affects the simulated system: energy,
            accuracy, decisions and update counts are bitwise identical
            across levels.
    """

    def __init__(
        self,
        config: SimulationConfig,
        policy: SchedulingPolicy,
        measurement_table: Optional[MeasurementTable] = None,
        profile: bool = False,
        trace_level: str = "full",
    ) -> None:
        rngs = self.build_coordinator(
            config, policy, measurement_table, profile, trace_level
        )
        # The per-user substrate of the one inline shard run() drives, built
        # here from the coordinator's own dataset and specs.
        self.power_model, self.batteries, self.clients = build_population(
            config, self.table, self.device_specs, self.dataset, rngs["dataset"]
        )
        # Delta-only uploads suffice for the accumulate rule; replace/mixing
        # rules consume absolute parameter vectors, so clients ship them.
        self._upload_params = config.async_rule is not AsyncUpdateRule.ACCUMULATE

    @classmethod
    def restore(cls, checkpoint, **kwargs) -> "SimulationEngine":
        """Rebuild an engine from an
        :class:`~repro.service.checkpoint.EngineCheckpoint` (written under
        any shard count; see :func:`repro.service.checkpoint.reslice`).

        ``kwargs`` are the constructor keywords a checkpoint does not carry
        (``measurement_table``, ``profile``).  ``run()`` on the restored engine continues
        from the checkpoint slot, bitwise-identical to the uninterrupted run.
        """
        return restore_engine(cls, checkpoint, **kwargs)

    def run(self, checkpointer=None) -> SimulationResult:
        """Run the simulation and return its result.

        Wraps the engine's pre-built components into a single
        :class:`~repro.sim.shard.FleetShard` covering the whole population
        and drives it through an in-process handle — structurally the
        one-inline-shard case of the sharded engine, so the staged kernels
        cannot fork between single-process and sharded execution; an
        N-shard run differs only in where the per-user state resides.  The
        engine is single-shot: build a new engine for another run.

        Args:
            checkpointer: optional
                :class:`~repro.service.checkpoint.Checkpointer`; snapshots
                are taken at the top of due slots, and a requested stop
                raises :class:`~repro.service.checkpoint.RunInterrupted`
                carrying the final checkpoint.
        """
        # Function-local: repro.sim.shard imports this module.
        from repro.sim import shard as shard_module

        self.begin_run()
        tick = self.timers.start()
        try:
            config = self.config
            shard = shard_module.FleetShard(
                config=config,
                lo=0,
                hi=config.num_users,
                device_specs=self.device_specs,
                power_model=self.power_model,
                batteries=self.batteries,
                clients=self.clients,
                arrivals=self.arrivals,
                include_params=self._upload_params,
                timers=self.timers,
            )
            handles = [shard_module.InlineShardHandle(shard)]
            bounds = [(0, config.num_users)]
            if self._resume is not None:
                shard_module.restore_shards(self, handles, bounds, self._resume)
            shard_module.drive_fleet_loop(
                self, handles, bounds, self._resume, self._resume is None, checkpointer
            )
            return self.assemble_result(
                shard.fleet.accountant,
                shard.fleet.final_battery_soc(),
                fleet_planes=[shard.fleet.plane_counters()],
            )
        finally:
            self.timers.stop_total(tick)


def build_engine(
    config: SimulationConfig,
    policy: SchedulingPolicy,
    *,
    shards: int = 1,
    resume_from=None,
    fault_injector=None,
    trace_level: str = "full",
    **kwargs,
):
    """The engine for a run: single-process, or sharded for ``shards > 1``.

    The one place that chooses between the two engine classes — the CLI,
    :func:`repro.analysis.runner.execute_spec` and through it scenarios and
    the service all come here.  With ``resume_from`` (an
    :class:`~repro.service.checkpoint.EngineCheckpoint`) the engine is
    restored instead: configuration, policy and trace level then come from
    the checkpoint, and ``shards`` may differ from the layout that wrote it.
    ``kwargs`` (``measurement_table``, ``profile``) pass through,
    so each engine keeps its own defaults; ``fault_injector`` reaches only
    the sharded engine, the one with workers to inject into.
    """
    if shards > 1:
        # Function-local: repro.sim.shard imports this module.
        from repro.sim.shard import ShardedEngine

        cls = ShardedEngine
        kwargs.update(shards=shards, fault_injector=fault_injector)
    else:
        cls = SimulationEngine
    if resume_from is not None:
        return cls.restore(resume_from, **kwargs)
    return cls(config, policy, trace_level=trace_level, **kwargs)

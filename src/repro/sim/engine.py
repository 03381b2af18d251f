"""The slotted simulation engine (the Section VII.B evaluation harness).

One engine instance simulates the full federated system for one scheduling
policy: the device fleet, application arrivals, the scheduling decisions, the
actual NumPy model training, the parameter server, the staleness bookkeeping
and the energy accounting.  The timeline of one slot is:

1. expire finished foreground applications and launch newly-arriving ones;
2. hand the policy a :class:`~repro.core.policies.SlotContext` and, for every
   *ready* user (model downloaded, no training job running), a
   :class:`~repro.core.policies.DeviceObservation`; start training jobs for
   every ``SCHEDULE`` decision and apply the Eq. (12) gap dynamics;
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

import pickle
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.messages import ModelDownload
from repro.comm.network import NetworkModel
from repro.comm.transport import ModelTransport
from repro.core.offline import OfflinePolicy
from repro.core.policies import (
    Aggregation,
    Decision,
    DeviceObservation,
    SchedulingPolicy,
    SlotContext,
)
from repro.core.staleness import GapTracker, gradient_gap
from repro.device.device import DeviceState, MobileDevice
from repro.device.models import DeviceSpec, build_device_fleet
from repro.energy.battery import Battery
from repro.energy.measurements import MeasurementTable
from repro.energy.power_model import EnergyAccountant, PowerModel
from repro.fl.batch import TrainAheadScheduler
from repro.fl.client import FLClient, LocalUpdate
from repro.fl.dataset import (
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
    build_arrival_process,
)
from repro.sim.config import SimulationConfig
from repro.sim.coupling import CouplingCore
from repro.sim.rng import spawn_generators
from repro.sim.timers import EngineTimers
from repro.sim.trace import TRACE_LEVELS, SimulationTrace, SlotSample

__all__ = [
    "RNG_STREAM_NAMES",
    "SimulationEngine",
    "SimulationResult",
    "build_arrival_schedule",
    "build_batteries",
    "build_clients",
    "build_dataset",
    "build_eval_model",
    "build_partitions",
    "build_rngs",
    "build_transport",
]

#: The independent RNG streams every build derives from the master seed.
#: One list, used by the engine, the sharded coordinator and the shard
#: workers alike — adding a stream in one place cannot silently desynchronise
#: the others (each name is an independent child generator, so consumers may
#: ignore streams they do not draw from).
RNG_STREAM_NAMES = ("devices", "arrivals", "dataset", "clients", "network", "apps")


# ---------------------------------------------------------------------------
# Component builders
#
# The engine's constructor used to assemble the whole simulated system
# inline; these module-level builders are the same construction steps made
# reusable, so a shard worker process (repro.sim.shard) can rebuild exactly
# the slice of the system it owns — same RNG streams, same objects, same
# bits — without a second copy of the logic.
# ---------------------------------------------------------------------------


def build_batteries(
    config: SimulationConfig, device_specs: Sequence[DeviceSpec]
) -> List[Optional[Battery]]:
    """Per-user batteries (or ``None``) exactly as the engine wires them.

    Dev boards are bench-powered and never gated.  Per-user
    capacities/rates (the scenario compiler's heterogeneous fleets) override
    the global knobs; a ``None`` capacity entry means no battery at all.
    Deterministic in ``config`` — no RNG stream is consumed.
    """
    if config.user_battery_capacity_j is not None:
        capacities = list(config.user_battery_capacity_j)
    else:
        capacities = [config.battery_capacity_j] * config.num_users
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
    if config.user_battery_capacity_j is not None:
        capacities: Sequence[Optional[float]] = config.user_battery_capacity_j
    elif config.battery_capacity_j is None:
        return False
    else:
        capacities = [config.battery_capacity_j] * config.num_users
    return any(
        capacity is not None and not spec.is_dev_board()
        for capacity, spec in zip(capacities, device_specs)
    )


def build_rngs(config: SimulationConfig):
    """The named component generators derived from the master seed."""
    return spawn_generators(config.seed, list(RNG_STREAM_NAMES))


def build_eval_model(config: SimulationConfig, input_dim: int) -> Sequential:
    """A fresh model with the run's canonical seed initialisation.

    Every client model and the server's initial parameters come from this
    same construction, so the coordinator and any worker agree on the
    initial global model bit for bit.
    """
    return build_mlp(
        input_dim=input_dim,
        hidden_dims=config.hidden_dims,
        num_classes=config.num_classes,
        seed=config.seed,
    )


def build_transport(config: SimulationConfig, rng) -> ModelTransport:
    """The network/transport stack (consumes the ``network`` stream)."""
    return ModelTransport(
        NetworkModel(
            rng=rng,
            wifi_probability=config.wifi_probability,
            assignments=config.user_wifi,
        ),
        account_radio_energy=config.account_radio_energy,
    )


def build_dataset(
    config: SimulationConfig, dataset: Optional[SyntheticCifar10] = None
) -> SyntheticCifar10:
    """The synthetic dataset of this configuration (seed-deterministic)."""
    return dataset or SyntheticCifar10(
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


def build_partitions(config: SimulationConfig, dataset: SyntheticCifar10, rng):
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
    partitions,
    input_dim: int,
    lo: int = 0,
    hi: Optional[int] = None,
) -> List[FLClient]:
    """FL clients for users ``[lo, hi)`` (the whole fleet by default).

    Each client gets a private model instance (identical seed
    initialisation) and a ``(seed, user)``-salted shuffling RNG, so the
    construction is slice-independent: building users 40..80 yields the
    same 40 clients whether or not the rest of the fleet is built.
    """
    hi = config.num_users if hi is None else hi
    clients: List[FLClient] = []
    for user in range(lo, hi):
        model = build_mlp(
            input_dim=input_dim,
            hidden_dims=config.hidden_dims,
            num_classes=config.num_classes,
            seed=config.seed,
        )
        clients.append(
            FLClient(
                user_id=user,
                partition=partitions[user],
                model=model,
                learning_rate=config.learning_rate,
                momentum=config.momentum,
                batch_size=config.batch_size,
                local_epochs=config.local_epochs,
                seed=config.seed + 1000 + user,
            )
        )
    return clients


def build_arrival_schedule(
    config: SimulationConfig,
    device_specs: Sequence[DeviceSpec],
    rng,
    table: MeasurementTable,
) -> ArrivalSchedule:
    """The pre-generated application arrivals (consumes the ``arrivals`` stream)."""
    if config.user_arrivals is not None:
        process = [build_arrival_process(spec) for spec in config.user_arrivals]
    elif config.diurnal_arrivals:
        process = DiurnalArrivalProcess(peak_probability=2.0 * config.app_arrival_prob)
    else:
        process = BernoulliArrivalProcess(config.app_arrival_prob)
    return ArrivalSchedule.generate(
        num_users=config.num_users,
        total_slots=config.total_slots,
        slot_seconds=config.slot_seconds,
        process=process,
        device_specs=device_specs,
        rng=rng,
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
class _UserState:
    """Mutable per-user scheduling state."""

    ready: bool = False
    waiting_slots: int = 0
    base_version: int = 0
    base_params: Optional[np.ndarray] = None
    uploaded_this_round: bool = False


@dataclass
class SimulationResult:
    """Everything a benchmark or example needs from one simulation run."""

    config: SimulationConfig
    policy_name: str
    trace: SimulationTrace
    accuracy: AccuracyTracker
    accountant: EnergyAccountant
    num_updates: int
    decision_evaluations: int
    device_names: List[str]
    queue_history: List[float] = field(default_factory=list)
    virtual_queue_history: List[float] = field(default_factory=list)
    comm_bytes_mb: float = 0.0
    comm_failures: int = 0
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


class SimulationEngine:
    """Simulate the federated mobile system under one scheduling policy.

    Args:
        config: run configuration.
        policy: the scheduling policy to evaluate.
        dataset: optionally share a pre-built dataset across runs (policy
            comparisons should use the same dataset and seed).
        measurement_table: optionally override the Table II/III calibration.
        backend: ``"fleet"`` (default) advances the device fleet with the
            vectorized struct-of-arrays kernels of :mod:`repro.sim.fleet`;
            ``"loop"`` keeps the original per-user Python loops.  The two
            backends produce bitwise-identical decisions, energy and gap
            traces for the same configuration and seed
            (``tests/test_fleet.py``); the loop backend is retained as the
            executable specification and for that equivalence check.
        fast_forward: enable the event-horizon fast-forward path of the
            fleet backend (default on; ignored by the loop backend).  At the
            top of each slot the engine checks whether the slot is *quiet* —
            no pending arrival, empty ready pool, no application launch or
            expiry, no co-running job and no training completion due — and,
            if so, advances all slots up to the next event in one fused
            kernel (:meth:`repro.sim.fleet.FleetState.advance_quiet`).  The
            fast-forward path is bitwise-identical to the slot-by-slot fleet
            backend: decisions, energy, gap, queue and accuracy traces all
            match exactly (``tests/test_fleet.py`` enforces this).
        batched_training: execute all local rounds that complete in the same
            slot as one stacked tensor program
            (:class:`repro.fl.batch.BatchTrainer`) instead of one serial
            ``local_train`` per client.  Off by default: the batched path
            matches the serial one to tight numerical tolerance (and
            typically bitwise for non-ragged shard groups), but the repo's
            bitwise cross-backend contracts are stated for the serial
            trainer.  Works with both backends and with fast-forward.
        profile: collect per-subsystem wall-clock shares
            (:class:`repro.sim.timers.EngineTimers`) — training vs policy vs
            evaluation vs slot mechanics.  Never affects results.
        training_threads: worker threads for the batched trainer's block
            fan-out; ``None`` lets :class:`~repro.fl.batch.BatchTrainer`
            pick from the available cores.  Pass ``1`` when the engine
            itself runs inside a process pool (the experiment runner does)
            so compute-bound threads do not oversubscribe the cores the
            pool already occupies.  Thread count never affects results.
        trace_level: telemetry volume (:data:`repro.sim.trace.TRACE_LEVELS`).
            ``full`` (default) records every series; ``summary`` keeps
            streamed aggregates only — no per-slot samples, no per-user gap
            traces, no queue histories — so megafleet runs stop accumulating
            O(users x slots) telemetry; ``off`` additionally drops the
            per-update samples.  Never affects the simulated system: energy,
            accuracy, decisions and update counts are bitwise identical
            across levels.
    """

    BACKENDS = ("fleet", "loop")

    def __init__(
        self,
        config: SimulationConfig,
        policy: SchedulingPolicy,
        dataset: Optional[SyntheticCifar10] = None,
        measurement_table: Optional[MeasurementTable] = None,
        backend: str = "fleet",
        fast_forward: bool = True,
        batched_training: bool = False,
        profile: bool = False,
        training_threads: Optional[int] = None,
        trace_level: str = "full",
    ) -> None:
        if backend not in self.BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {self.BACKENDS}")
        if trace_level not in TRACE_LEVELS:
            raise ValueError(
                f"unknown trace_level {trace_level!r}; choose from {TRACE_LEVELS}"
            )
        self.backend = backend
        self.trace_level = trace_level
        self.fast_forward = bool(fast_forward)
        self.batched_training = bool(batched_training)
        self.training_threads = training_threads
        self.timers = EngineTimers(enabled=profile)
        self.config = config
        self.policy = policy
        self.table = measurement_table or MeasurementTable()

        rngs = build_rngs(config)

        # -- device fleet -----------------------------------------------------
        self.device_specs: List[DeviceSpec] = build_device_fleet(
            config.num_users,
            rngs["devices"],
            mix=config.device_mix,
            names=config.device_names,
        )
        self.devices: List[MobileDevice] = [
            MobileDevice(user_id=i, spec=spec, slot_seconds=config.slot_seconds)
            for i, spec in enumerate(self.device_specs)
        ]
        self.power_model = PowerModel(
            table=self.table,
            include_scheduler_overhead=config.include_scheduler_overhead,
        )
        # Batteries (optional): dev boards are bench-powered and never gated.
        self.batteries: List[Optional[Battery]] = build_batteries(
            config, self.device_specs
        )
        self._has_batteries = any(b is not None for b in self.batteries)

        # -- dataset and FL substrate -------------------------------------------
        self.dataset = build_dataset(config, dataset)
        partitions = build_partitions(config, self.dataset, rngs["dataset"])
        self.clients: List[FLClient] = build_clients(
            config, partitions, self.dataset.input_dim()
        )
        self.eval_model: Sequential = build_eval_model(config, self.dataset.input_dim())
        self.server = ParameterServer(
            self.eval_model.get_flat_params(),
            async_rule=config.async_rule,
            mixing_alpha=config.mixing_alpha,
        )

        # -- arrivals and communication -------------------------------------------
        self.arrivals = build_arrival_schedule(
            config, self.device_specs, rngs["arrivals"], self.table
        )
        self.transport = build_transport(config, rngs["network"])

        # -- bookkeeping ------------------------------------------------------------
        self.gap_tracker = GapTracker(epsilon=config.epsilon)
        self.accountant = EnergyAccountant()
        self.trace = SimulationTrace(
            trace_interval_slots=config.trace_interval_slots, level=trace_level
        )
        self.accuracy = AccuracyTracker()
        self._user_states = [_UserState() for _ in range(config.num_users)]
        self._has_run = False
        # Delta-only uploads suffice for the accumulate rule; replace/mixing
        # rules consume absolute parameter vectors, so clients ship them.
        self._upload_params = config.async_rule is not AsyncUpdateRule.ACCUMULATE
        # Only the loop backend trains through the engine; the fleet backend
        # builds its own TrainAheadScheduler inside its FleetShard.
        self._train_scheduler = (
            TrainAheadScheduler(
                self.clients,
                batched=self.batched_training,
                threads=training_threads,
                include_params=self._upload_params,
            )
            if backend == "loop"
            else None
        )
        # The coordinator-side coupling core: the cross-user state the paper
        # routes through the server, shared verbatim by the loop backend,
        # the fleet slot loop and the sharded engine.
        self.core = CouplingCore(
            config=config,
            policy=policy,
            server=self.server,
            transport=self.transport,
            trace=self.trace,
            accuracy=self.accuracy,
            eval_model=self.eval_model,
            dataset=self.dataset,
            timers=self.timers,
        )
        self._sync_buffer = self.core.sync_buffer
        _apply_queue_telemetry(policy, trace_level)
        #: Checkpoint being resumed from, or ``None`` for a fresh run.
        self._resume = None
        # Loop-backend cursor for snapshot(): (next slot, its pending arrivals).
        self._loop_slot = 0
        self._loop_pending: List[int] = list(range(config.num_users))

    # -- checkpoint / restore -----------------------------------------------------

    @classmethod
    def restore(
        cls,
        checkpoint,
        *,
        dataset: Optional[SyntheticCifar10] = None,
        measurement_table: Optional[MeasurementTable] = None,
        profile: bool = False,
        training_threads: Optional[int] = None,
    ) -> "SimulationEngine":
        """Rebuild an engine from an
        :class:`~repro.service.checkpoint.EngineCheckpoint`.

        The static substrate (devices, dataset, arrivals, calibration) is
        rebuilt bitwise from the checkpointed configuration; the captured
        coupling and per-user state is installed over it.  ``run()`` on the
        restored engine continues from the checkpoint slot and produces
        results bitwise-identical to the uninterrupted run.
        """
        coordinator = checkpoint.coordinator.materialize()
        engine = cls(
            config=checkpoint.config,
            policy=coordinator.policy,
            dataset=dataset,
            measurement_table=measurement_table,
            backend=checkpoint.backend,
            fast_forward=checkpoint.fast_forward,
            batched_training=checkpoint.batched_training,
            profile=profile,
            training_threads=training_threads,
            trace_level=checkpoint.trace_level,
        )
        coordinator.install(engine.core, engine.timers)
        engine.server = engine.core.server
        engine.transport = engine.core.transport
        engine.trace = engine.core.trace
        engine.accuracy = engine.core.accuracy
        engine._sync_buffer = engine.core.sync_buffer
        if checkpoint.backend == "loop":
            loop = checkpoint.loop
            (
                engine.devices,
                engine.batteries,
                engine._user_states,
                engine.gap_tracker,
                engine.accountant,
            ) = pickle.loads(loop["unit"])
            engine._has_batteries = any(b is not None for b in engine.batteries)
            for client, state in zip(engine.clients, loop["clients"]):
                client.optimizer.load_velocity(state["velocity"])
                client._rng.bit_generator.state = state["rng_state"]
                client.rounds_completed = int(state["rounds_completed"])
            engine._train_scheduler.load_state_dict(loop["scheduler"])
            engine._loop_slot = checkpoint.slot
            engine._loop_pending = list(checkpoint.pending_arrivals)
        engine._resume = checkpoint
        return engine

    def snapshot(self):
        """A complete checkpoint of the loop backend at its current slot.

        The loop backend mutates only per-user Python objects, so its state
        is well-defined at any slot boundary — before the first slot, after
        the last, or from a :class:`~repro.service.checkpoint.Checkpointer`
        boundary during the run.  The fleet backend's state lives inside
        its shard (possibly mid-fast-forward); drive it with a
        ``Checkpointer`` instead, which snapshots at due slot boundaries.
        """
        if self.backend != "loop":
            raise RuntimeError(
                "snapshot() is only direct on the loop backend; pass a "
                "Checkpointer to run() to checkpoint the fleet/sharded backends"
            )
        return self._loop_checkpoint(self._loop_slot, list(self._loop_pending))

    def _loop_checkpoint(self, slot: int, pending_arrivals: List[int]):
        """Assemble the loop backend's state into an ``EngineCheckpoint``."""
        from repro.service.checkpoint import (
            CHECKPOINT_FORMAT_VERSION,
            CoordinatorState,
            EngineCheckpoint,
        )

        clients_state = []
        for client in self.clients:
            velocity = client.optimizer.velocity
            clients_state.append(
                {
                    "velocity": None if velocity is None else velocity.copy(),
                    "rng_state": client._rng.bit_generator.state,
                    "rounds_completed": client.rounds_completed,
                }
            )
        loop = {
            # Serialised once, like the coordinator unit: the bytes are the
            # isolated snapshot and every restore unpickles its own copy.
            "unit": pickle.dumps(
                (
                    self.devices,
                    self.batteries,
                    self._user_states,
                    self.gap_tracker,
                    self.accountant,
                ),
                protocol=pickle.HIGHEST_PROTOCOL,
            ),
            "energy_j": self.accountant.total_j(),
            "clients": clients_state,
            "scheduler": self._train_scheduler.state_dict(),
        }
        return EngineCheckpoint(
            format_version=CHECKPOINT_FORMAT_VERSION,
            backend="loop",
            slot=slot,
            pending_arrivals=pending_arrivals,
            global_ready=-1,
            config=self.config,
            fast_forward=self.fast_forward,
            batched_training=self.batched_training,
            trace_level=self.trace_level,
            coordinator=CoordinatorState.capture(self.core, self.timers),
            loop=loop,
        )

    # -- helpers ------------------------------------------------------------------

    def _make_ready(self, user: int, slot: int) -> None:
        """The user downloads the current model and joins the ready pool."""
        state = self._user_states[user]
        state.ready = True
        state.waiting_slots = 0
        state.base_version = self.server.version
        state.base_params = self.server.download(user)
        self.transport.download(
            ModelDownload(user_id=user, server_version=self.server.version),
            time_s=slot * self.config.slot_seconds,
        )

    def _observation(self, user: int, slot: int) -> DeviceObservation:
        device = self.devices[user]
        client = self.clients[user]
        spec = device.spec
        app_name = device.current_app.name if device.current_app is not None else None
        duration_slots = device.training_duration_slots()
        estimated_lag = self.server.estimate_lag(
            user,
            now_s=slot * self.config.slot_seconds,
            duration_s=duration_slots * self.config.slot_seconds,
        )
        return DeviceObservation(
            user_id=user,
            slot=slot,
            slot_seconds=self.config.slot_seconds,
            device_name=spec.name,
            app_running=device.app_running,
            app_name=app_name,
            power_corun_w=self.power_model.corun_power(spec.name, app_name),
            power_app_w=self.power_model.app_power(spec.name, app_name),
            power_training_w=self.power_model.training_power(spec.name),
            power_idle_w=self.power_model.idle_power(spec.name),
            estimated_lag=estimated_lag,
            momentum_norm=client.momentum_norm(),
            learning_rate=client.learning_rate,
            momentum_coeff=client.momentum,
            training_duration_slots=duration_slots,
            waiting_slots=self._user_states[user].waiting_slots,
            current_gap=self.gap_tracker.current_gap(user),
        )

    def _record_scheduled(self, user: int, base_params: np.ndarray, base_version: int) -> None:
        """Register a just-started training job with the train-ahead scheduler."""
        self._train_scheduler.record(user, base_params, base_version)

    def _obtain_update(
        self, user: int, base_params: np.ndarray, base_version: int
    ) -> LocalUpdate:
        """The finished user's upload: serial now, or from the train-ahead batch.

        Orchestration lives in :class:`~repro.fl.batch.TrainAheadScheduler`
        (shared with the fleet shards); the engine adds only the profiling.
        """
        tick = self.timers.start()
        update = self._train_scheduler.obtain(user, base_params, base_version)
        self.timers.stop("training", tick)
        return update

    def _apply_async_update(
        self, user: int, slot: int, base_params: np.ndarray, update: LocalUpdate
    ) -> float:
        """Apply one finished user's upload (see :class:`CouplingCore`)."""
        return self.core.apply_async_update(
            user,
            slot,
            update,
            round_number=self.clients[user].rounds_completed,
            base_params=base_params,
        )

    def _maybe_complete_sync_round(
        self, slot: int, stalled_fn: Optional[Callable[[], List[int]]] = None
    ) -> List[int]:
        """Loop-backend wrapper of the core's quorum completion.

        The quorum/aggregation logic lives in
        :meth:`CouplingCore.maybe_complete_sync_round`; this wrapper adds
        the loop backend's own bookkeeping — gap-tracker resets for the
        round's members and the per-user ``uploaded_this_round`` flags.
        """
        members = sorted(self._sync_buffer)
        released = self.core.maybe_complete_sync_round(slot, stalled_fn)
        if members and not self._sync_buffer:  # the round completed
            for user in members:
                self.gap_tracker.on_update_applied(user, 0.0)
            for state in self._user_states:
                state.uploaded_this_round = False
        return released

    def _evaluate(self, slot: int) -> None:
        """Evaluate the current global model (see :meth:`CouplingCore.evaluate`)."""
        self.core.evaluate(slot)

    # -- main loop --------------------------------------------------------------------

    def run(self, checkpointer=None) -> SimulationResult:
        """Run the simulation and return its result.

        Dispatches to the vectorized fleet backend or the per-user loop
        backend (see the ``backend`` constructor argument); both produce
        bitwise-identical results.  The engine is single-shot: build a new
        engine for another run.

        Args:
            checkpointer: optional
                :class:`~repro.service.checkpoint.Checkpointer`; snapshots
                are taken at the top of due slots, and a requested stop
                raises :class:`~repro.service.checkpoint.RunInterrupted`
                carrying the final checkpoint.
        """
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
        tick = self.timers.start()
        try:
            if self.backend == "fleet":
                return self._run_fleet(checkpointer)
            return self._run_loop(checkpointer)
        finally:
            self.timers.stop_total(tick)

    def _run_loop(self, checkpointer=None) -> SimulationResult:
        """The original per-user reference implementation of the slot loop."""
        config = self.config
        sync_mode = self.policy.aggregation is Aggregation.SYNC
        stalled_fn = (
            self._loop_stalled_sync_users if self._has_batteries else None
        )

        if self._resume is None:
            # All users download the initial model and arrive at slot 0.
            start_slot = 0
            pending_arrivals = list(range(config.num_users))
            self._evaluate(0)
        else:
            start_slot = self._resume.slot
            pending_arrivals = list(self._resume.pending_arrivals)
        if checkpointer is not None:
            checkpointer.begin(start_slot)

        for slot in range(start_slot, config.total_slots):
            self._loop_slot = slot
            self._loop_pending = list(pending_arrivals)
            if checkpointer is not None and checkpointer.due(slot):
                checkpointer.take(self._loop_checkpoint(slot, list(pending_arrivals)))
            time_s = slot * config.slot_seconds

            # 1. Applications: expire finished ones, launch new arrivals.
            for user, device in enumerate(self.devices):
                if device.current_app is not None and not device.current_app.is_running(slot):
                    device.current_app = None
                app = self.arrivals.app_starting_at(user, slot)
                if app is not None and device.current_app is None:
                    device.launch_app(app)

            # 2. Arrivals -> ready pool.
            num_arrivals = len(pending_arrivals)
            for user in pending_arrivals:
                self._make_ready(user, slot)
            pending_arrivals = []

            ready_users = [
                user
                for user, state in enumerate(self._user_states)
                if state.ready
                and self.devices[user].available
                and (self.batteries[user] is None or self.batteries[user].can_participate())
            ]
            training_users = [u for u, d in enumerate(self.devices) if d.training_running]
            context = SlotContext(
                slot=slot,
                slot_seconds=config.slot_seconds,
                num_arrivals=num_arrivals,
                num_ready=len(ready_users),
                num_training=len(training_users),
                num_users=config.num_users,
            )
            policy_tick = self.timers.start()
            self.policy.begin_slot(context)

            # 3. Decisions for every ready user.
            num_scheduled = 0
            decided_idle_users: List[int] = []
            for user in ready_users:
                observation = self._observation(user, slot)
                decision = self.policy.decide(observation)
                device = self.devices[user]
                if decision is Decision.SCHEDULE:
                    job = device.start_training(slot, self._user_states[user].base_version)
                    self.server.register_inflight(
                        user, expected_finish_s=(slot + job.duration_slots) * config.slot_seconds
                    )
                    self._record_scheduled(
                        user,
                        self._user_states[user].base_params,
                        self._user_states[user].base_version,
                    )
                    scheduled_gap = gradient_gap(
                        observation.momentum_norm,
                        observation.learning_rate,
                        observation.momentum_coeff,
                        observation.estimated_lag,
                    )
                    self.gap_tracker.on_scheduled(user, scheduled_gap)
                    self._user_states[user].ready = False
                    num_scheduled += 1
                    self.trace.record_decision(scheduled=True, corun=device.app_running)
                else:
                    self.gap_tracker.accumulate_idle(user)
                    self._user_states[user].waiting_slots += 1
                    decided_idle_users.append(user)
                    self.trace.record_decision(scheduled=False)
            self.timers.stop("policy", policy_tick)

            # 4. Advance every device by one slot.
            finished_users: List[int] = []
            for user, device in enumerate(self.devices):
                outcome = device.step(slot, self.power_model)
                overhead_j = 0.0
                if (
                    config.include_scheduler_overhead
                    and user in decided_idle_users
                    and outcome.state is DeviceState.IDLE
                ):
                    overhead_j = (
                        self.power_model.overhead_power(device.spec.name)
                        - self.power_model.idle_power(device.spec.name)
                    ) * config.slot_seconds
                self.accountant.record(user, outcome.state, outcome.energy_j, overhead_j)

                battery = self.batteries[user]
                if battery is not None:
                    battery.discharge(outcome.energy_j + overhead_j)
                    if outcome.state is DeviceState.IDLE and battery.charge_rate_w > 0:
                        battery.charge(config.slot_seconds)

                if outcome.training_finished:
                    finished_users.append(user)

            # Training completions: the upload of each finisher is obtained
            # (train-ahead batch or serial round) and applied sequentially
            # in ascending user order — the order the per-user code used.
            for user in finished_users:
                state = self._user_states[user]
                update = self._obtain_update(user, state.base_params, state.base_version)
                if sync_mode:
                    self._sync_buffer[user] = update
                    state.uploaded_this_round = True
                    self.server.unregister_inflight(user)
                else:
                    realized_gap = self._apply_async_update(
                        user, slot, state.base_params, update
                    )
                    self.gap_tracker.on_update_applied(user, realized_gap)
                    pending_arrivals.append(user)

            if sync_mode:
                released = self._maybe_complete_sync_round(slot, stalled_fn)
                pending_arrivals.extend(released)

            # 5. Close the slot: queues, traces, evaluation.
            gap_sum = self.gap_tracker.total_gap()
            policy_tick = self.timers.start()
            self.policy.end_slot(context, num_scheduled, gap_sum)
            self.timers.stop("policy", policy_tick)
            self.accountant.close_slot()

            queue_length = getattr(getattr(self.policy, "task_queue", None), "length", 0.0)
            virtual_length = getattr(
                getattr(self.policy, "virtual_queue", None), "length", 0.0
            )
            self.trace.maybe_record_slot(
                SlotSample(
                    slot=slot,
                    time_s=time_s,
                    cumulative_energy_j=self.accountant.total_j(),
                    queue_length=queue_length,
                    virtual_queue_length=virtual_length,
                    gap_sum=gap_sum,
                    num_training=len(training_users),
                    num_ready=len(ready_users),
                )
            )
            if slot % config.trace_interval_slots == 0:
                for user in range(config.num_users):
                    self.trace.record_user_gap(
                        user, time_s, self.gap_tracker.current_gap(user)
                    )
            if slot > 0 and slot % config.eval_interval_slots == 0:
                self._evaluate(slot)

        self._loop_slot = config.total_slots
        self._loop_pending = list(pending_arrivals)
        self._evaluate(config.total_slots)

        queue_history = list(getattr(getattr(self.policy, "task_queue", None), "history", lambda: [])())
        virtual_history = list(
            getattr(getattr(self.policy, "virtual_queue", None), "history", lambda: [])()
        )
        return SimulationResult(
            config=config,
            policy_name=self.policy.name,
            trace=self.trace,
            accuracy=self.accuracy,
            accountant=self.accountant,
            num_updates=self.server.num_updates(),
            decision_evaluations=self.policy.decision_cost_evaluations(),
            device_names=[spec.name for spec in self.device_specs],
            queue_history=queue_history,
            virtual_queue_history=virtual_history,
            comm_bytes_mb=self.transport.total_bytes_mb(),
            comm_failures=self.transport.failure_count(),
            final_battery_soc=[b.soc for b in self.batteries if b is not None],
            timers=self.timers if self.timers.enabled else None,
            queue_stats=_policy_queue_stats(self.policy),
        )

    def _loop_stalled_sync_users(self) -> List[int]:
        """Loop-backend view of the permanently-stalled synchronous users.

        Mirrors :meth:`repro.sim.fleet.FleetState.stalled_sync_users`: below
        the participation threshold, zero charge rate (no recovery path) and
        not currently training (a training user finishes and uploads).
        """
        stalled = []
        for user, battery in enumerate(self.batteries):
            if (
                battery is not None
                and battery.charge_rate_w == 0.0
                and not battery.can_participate()
                and not self.devices[user].training_running
            ):
                stalled.append(user)
        return stalled

    # -- vectorized backend ------------------------------------------------------------

    def _run_fleet(self, checkpointer=None) -> SimulationResult:
        """Vectorized slot loop over one in-process fleet shard.

        The loop itself lives in :func:`repro.sim.shard.drive_fleet_loop`
        and is shared **verbatim** with the sharded engine: this method
        wraps the engine's pre-built components into a single
        :class:`~repro.sim.shard.FleetShard` covering the whole population
        and drives it through an in-process handle.  The staged kernels —
        application churn, arrivals, batched decisions, fleet advancement,
        deterministic upload application, sync-round quorum, event-horizon
        fast-forward — therefore cannot fork between single-process and
        sharded execution; an N-shard run differs only in where the per-user
        state resides.
        """
        from repro.sim.shard import FleetShard, InlineShardHandle, drive_fleet_loop

        config = self.config
        shard = FleetShard(
            config=config,
            lo=0,
            hi=config.num_users,
            device_specs=self.device_specs,
            power_model=self.power_model,
            batteries=self.batteries,
            clients=self.clients,
            arrivals=self.arrivals,
            include_params=self._upload_params,
            batched_training=self.batched_training,
            training_threads=self.training_threads,
            timers=self.timers,
        )
        self._shard = shard
        start_slot = 0
        pending_arrivals = None
        global_ready = -1
        if self._resume is not None:
            from repro.service.checkpoint import reslice

            shard.restore_state(
                reslice(self._resume.slices, [(0, config.num_users)])[0]
            )
            start_slot = self._resume.slot
            pending_arrivals = list(self._resume.pending_arrivals)
            global_ready = self._resume.global_ready

        snapshot_fn = None
        if checkpointer is not None:
            from repro.service.checkpoint import (
                CHECKPOINT_FORMAT_VERSION,
                CoordinatorState,
                EngineCheckpoint,
            )

            def snapshot_fn(slot, pending, ready):
                return EngineCheckpoint(
                    format_version=CHECKPOINT_FORMAT_VERSION,
                    backend="fleet",
                    slot=slot,
                    pending_arrivals=pending,
                    global_ready=ready,
                    config=config,
                    fast_forward=self.fast_forward,
                    batched_training=self.batched_training,
                    trace_level=self.trace_level,
                    coordinator=CoordinatorState.capture(self.core, self.timers),
                    slices=[shard.checkpoint_state()],
                )

        drive_fleet_loop(
            core=self.core,
            handles=[InlineShardHandle(shard)],
            bounds=[(0, config.num_users)],
            config=config,
            fast_forward=self.fast_forward,
            timers=self.timers,
            trace_level=self.trace_level,
            has_batteries=self._has_batteries,
            start_slot=start_slot,
            pending_arrivals=pending_arrivals,
            global_ready=global_ready,
            initial_eval=self._resume is None,
            checkpointer=checkpointer,
            snapshot_fn=snapshot_fn,
        )
        fleet = shard.fleet

        queue_history = list(getattr(getattr(self.policy, "task_queue", None), "history", lambda: [])())
        virtual_history = list(
            getattr(getattr(self.policy, "virtual_queue", None), "history", lambda: [])()
        )
        return SimulationResult(
            config=config,
            policy_name=self.policy.name,
            trace=self.trace,
            accuracy=self.accuracy,
            accountant=fleet.accountant,
            num_updates=self.server.num_updates(),
            decision_evaluations=self.policy.decision_cost_evaluations(),
            device_names=[spec.name for spec in self.device_specs],
            queue_history=queue_history,
            virtual_queue_history=virtual_history,
            comm_bytes_mb=self.transport.total_bytes_mb(),
            comm_failures=self.transport.failure_count(),
            final_battery_soc=fleet.final_battery_soc(),
            timers=self.timers if self.timers.enabled else None,
            queue_stats=_policy_queue_stats(self.policy),
        )

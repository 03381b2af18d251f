"""The per-user reference loop: the executable specification of one slot.

:class:`ReferenceLoopEngine` simulates the same system as
:class:`~repro.sim.engine.SimulationEngine` with one Python object per user
(:class:`MobileDevice`, :class:`~repro.energy.battery.Battery`,
:class:`GapTracker`, ...) and one ``policy.decide_all`` call on a batch of
one per ready user — the five-step slot timeline of :mod:`repro.sim.engine` written the
way the paper states it: the four Eq. (10) power levels chosen per device
(:func:`power`), the Eq. (12) gap recursion per user and one Algorithm 2
decision per ready device.  It is the oracle the vectorized kernels, the
event-horizon fast-forward and the sharded engine are held bitwise-equal to
(``tests/test_fleet.py``, ``tests/test_properties.py`` and the differential
suites built on them), reached through ``oracle.make_engine("loop", ...)``.

It shares the component builders, the :class:`~repro.sim.engine.Coordinator`
base and the :class:`~repro.sim.coupling.CouplingCore` with the engines, so
what the comparison exercises is exactly the per-user mechanics.  The
scalar models it runs on live here too, next to it:

* :class:`DeviceState` and :func:`power` — the four cases of Eq. (10) and
  the per-slot dispatch over a :class:`~repro.energy.power_model.PowerModel`;
* :class:`MobileDevice` — one handset's app / training state machine;
* :class:`EnergyAccountant` — per-user energy by state, summed left to right;
* :class:`GapTracker` — the per-user Eq. (12) gap dynamics;
* :func:`estimate_lag` — the dict-scan lag estimate of Algorithm 2 line 4;
* :func:`launch_index` — each user's launches keyed by arrival slot.

The fleet kernels replay these: a change to the step semantics here (power
selection, progress accounting, slowdowns) must be mirrored in
:mod:`repro.sim.fleet` — the selection in ``FleetState._retarget_many`` /
``_retarget_one``, the arithmetic in ``FleetState._step`` — and
``tests/test_fleet.py`` catches any divergence.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.columns import ordered_sum
from repro.core.policies import (
    Aggregation,
    ObservationBatch,
    SchedulingPolicy,
    SlotContext,
)
from repro.core.staleness import gradient_gap
from repro.device.apps import ForegroundApp
from repro.device.models import DeviceSpec
from repro.device.thermal import ThermalModel
from repro.energy.measurements import MeasurementTable
from repro.energy.power_model import EnergyBreakdown, PowerModel
from repro.fl.client import FLClient, LocalUpdate
from repro.fl.optimizer import vector_norm
from repro.fl.server import AsyncUpdateRule, ParameterServer
from repro.sim.arrivals import ArrivalSchedule
from repro.sim.config import SimulationConfig
from repro.sim.engine import Coordinator, SimulationResult, build_population
from repro.sim.trace import SimulationTrace, SlotSample

# ---------------------------------------------------------------------------
# Eq. (10): activity states and the per-slot power level
# ---------------------------------------------------------------------------


class DeviceState(str, Enum):
    """Instantaneous activity state of a device — the four cases of Eq. (10)."""

    IDLE = "idle"
    APP_ONLY = "app_only"
    TRAINING_ONLY = "training_only"
    CORUNNING = "corunning"


def power(
    model: PowerModel,
    device: str,
    state: DeviceState,
    app: Optional[str] = None,
    deciding: bool = False,
    include_scheduler_overhead: bool = False,
) -> float:
    """The power draw (W) of ``device`` for one slot in ``state``.

    ``deciding`` marks a slot in which the online controller evaluated its
    decision rule; it only matters in idle slots, and only when the Table III
    decision power is accounted (``include_scheduler_overhead``).
    """
    if state is DeviceState.CORUNNING:
        return model.corun_power(device, app)
    if state is DeviceState.TRAINING_ONLY:
        return model.training_power(device)
    if state is DeviceState.APP_ONLY:
        return model.app_power(device, app)
    if state is DeviceState.IDLE:
        if deciding and include_scheduler_overhead:
            return model.overhead_power(device)
        return model.idle_power(device)
    raise ValueError(f"unknown device state: {state!r}")


# ---------------------------------------------------------------------------
# One handset
# ---------------------------------------------------------------------------


@dataclass
class TrainingJob:
    """An in-flight local-training job on the device.

    Attributes:
        start_slot: slot at which training started.
        duration_slots: nominal duration (before contention slowdown).
        remaining_slots: slots of work left (decremented each slot; contention
            with an intensive foreground app makes a slot count for less than
            one slot of progress).
        model_version: parameter-server version downloaded at start.
        corun: whether the job was started as a co-running job.
    """

    start_slot: int
    duration_slots: int
    remaining_slots: float
    model_version: int
    corun: bool


@dataclass
class StepOutcome:
    """What happened on a device during one simulation slot."""

    state: DeviceState
    energy_j: float
    training_finished: bool
    finished_job: Optional[TrainingJob] = None


class MobileDevice:
    """One participant's handset: which Eq. (10) row applies, slot by slot.

    The device decides nothing itself: the policy issues ``schedule`` /
    ``idle`` and the loop calls :meth:`step` once per slot, collecting
    energy, training completions and thermal state.

    Args:
        user_id: index of the owning user.
        spec: static device description.
        slot_seconds: wall-clock length of one simulation slot.
        thermal: optional thermal model; created from ``spec`` by default.
    """

    def __init__(
        self,
        user_id: int,
        spec: DeviceSpec,
        slot_seconds: float = 1.0,
        thermal: Optional[ThermalModel] = None,
    ) -> None:
        if slot_seconds <= 0:
            raise ValueError("slot_seconds must be positive")
        self.user_id = user_id
        self.spec = spec
        self.slot_seconds = slot_seconds
        self.thermal = thermal or ThermalModel(spec)
        self.current_app: Optional[ForegroundApp] = None
        self.current_job: Optional[TrainingJob] = None
        self.total_energy_j = 0.0
        self.completed_jobs = 0
        self.slots_in_state = {state: 0 for state in DeviceState}

    @property
    def app_running(self) -> bool:
        """Whether a foreground application is currently running."""
        return self.current_app is not None

    @property
    def training_running(self) -> bool:
        """Whether the background training service is currently running."""
        return self.current_job is not None

    @property
    def available(self) -> bool:
        """Whether the device can accept a new training job."""
        return self.current_job is None

    def state(self) -> DeviceState:
        """Current activity state (which row of Eq. (10) applies)."""
        if self.training_running and self.app_running:
            return DeviceState.CORUNNING
        if self.training_running:
            return DeviceState.TRAINING_ONLY
        if self.app_running:
            return DeviceState.APP_ONLY
        return DeviceState.IDLE

    def training_duration_slots(self) -> int:
        """Nominal training duration for this device, in slots."""
        return max(1, int(round(self.spec.training_time_s / self.slot_seconds)))

    def launch_app(self, app: ForegroundApp) -> None:
        """The user opens a foreground application (never over another one)."""
        if self.current_app is not None:
            raise RuntimeError(f"user {self.user_id}: an application is already running")
        self.current_app = app

    def start_training(self, slot: int, model_version: int) -> TrainingJob:
        """Start a local training job (the policy decided ``schedule``)."""
        if self.current_job is not None:
            raise RuntimeError(f"user {self.user_id}: training already in progress")
        duration = self.training_duration_slots()
        job = TrainingJob(
            start_slot=slot,
            duration_slots=duration,
            remaining_slots=float(duration),
            model_version=model_version,
            corun=self.app_running,
        )
        self.current_job = job
        return job

    def step(self, slot: int, power_model: PowerModel) -> StepOutcome:
        """Advance the device by one slot: the state occupied, the energy
        consumed, and the finished training job, if any."""
        # Expire the foreground app if its duration elapsed before this slot.
        if self.current_app is not None and slot >= self.current_app.end_slot():
            self.current_app = None

        state = self.state()
        self.slots_in_state[state] += 1

        app_name = self.current_app.name if self.current_app is not None else None
        power_w = power(power_model, self.spec.name, state, app_name)
        energy_j = power_w * self.slot_seconds
        self.total_energy_j += energy_j
        self.thermal.step(power_w, dt_s=self.slot_seconds)

        training_finished = False
        finished_job: Optional[TrainingJob] = None
        if self.current_job is not None:
            progress = 1.0
            if self.app_running and self.current_app is not None:
                # Intensive foreground apps slow background training
                # (Observation 2); thermal throttling compounds the effect.
                progress = 1.0 / self.thermal.training_slowdown(self.current_app.spec)
            self.current_job.remaining_slots -= progress
            if self.current_job.remaining_slots <= 0.0:
                training_finished = True
                finished_job = self.current_job
                self.current_job = None
                self.completed_jobs += 1

        return StepOutcome(
            state=state,
            energy_j=energy_j,
            training_finished=training_finished,
            finished_job=finished_job,
        )

    def utilization_summary(self) -> dict:
        """Fraction of elapsed slots spent in each activity state."""
        total = sum(self.slots_in_state.values())
        if total == 0:
            return {state.value: 0.0 for state in DeviceState}
        return {state.value: count / total for state, count in self.slots_in_state.items()}


# ---------------------------------------------------------------------------
# Energy, gaps, lags and launches, one user at a time
# ---------------------------------------------------------------------------


class EnergyAccountant:
    """Per-user and system-wide energy, broken down by state.

    :class:`repro.sim.fleet.FleetEnergyAccountant` is this API over per-user
    arrays, including the reduction order (:meth:`total_j` is a
    left-to-right sum over users) that the bitwise contract fixes.
    """

    def __init__(self) -> None:
        self._per_user: Dict[int, EnergyBreakdown] = defaultdict(EnergyBreakdown)
        self._per_slot_total: list = []
        self._running_total_j = 0.0
        self._slot_energy_j = 0.0

    def record(
        self, user_id: int, state: DeviceState, energy_j: float, overhead_j: float = 0.0
    ) -> None:
        """Record one slot of energy for ``user_id``."""
        if energy_j < 0 or overhead_j < 0:
            raise ValueError("energy must be non-negative")
        breakdown = self._per_user[user_id]
        if state is DeviceState.IDLE:
            breakdown.idle_j += energy_j
        elif state is DeviceState.APP_ONLY:
            breakdown.app_j += energy_j
        elif state is DeviceState.TRAINING_ONLY:
            breakdown.training_j += energy_j
        elif state is DeviceState.CORUNNING:
            breakdown.corunning_j += energy_j
        else:
            raise ValueError(f"unknown device state: {state!r}")
        breakdown.overhead_j += overhead_j
        self._slot_energy_j += energy_j + overhead_j

    def close_slot(self) -> None:
        """Add the slot's energies, summed in recording (user) order, to the
        running total and snapshot it."""
        self._running_total_j += self._slot_energy_j
        self._per_slot_total.append(self._running_total_j)
        self._slot_energy_j = 0.0

    def user_breakdown(self, user_id: int) -> EnergyBreakdown:
        """Energy breakdown for one user."""
        return self._per_user[user_id]

    def total_j(self) -> float:
        """System-wide total energy in joules."""
        return ordered_sum(
            np.array([b.total_j() for b in self._per_user.values()], dtype=np.float64)
        )

    def total_kj(self) -> float:
        """System-wide total energy in kilojoules."""
        return self.total_j() / 1000.0

    def training_related_j(self) -> float:
        """Energy attributable to training (training-alone + co-running)."""
        return ordered_sum(
            np.array(
                [b.training_j + b.corunning_j for b in self._per_user.values()],
                dtype=np.float64,
            )
        )

    def per_slot_totals(self) -> list:
        """Cumulative system energy at the end of each recorded slot."""
        return list(self._per_slot_total)


@dataclass
class GapTracker:
    """Per-user gradient-gap dynamics of Eq. (12).

    While a user idles in the ready queue every slot adds ``epsilon``; when
    it is scheduled its gap becomes the Eq. (4) estimate for the expected
    lag (and is recorded); when its update is applied the realised gap is
    recorded and the cumulative value resets to zero.
    """

    epsilon: float = 0.01
    _gaps: Dict[int, float] = field(default_factory=dict)
    _history: Dict[int, List[float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")

    def current_gap(self, user_id: int) -> float:
        """Current cumulative gap of ``user_id`` (0 for unknown users)."""
        return self._gaps.get(user_id, 0.0)

    def accumulate_idle(self, user_id: int) -> float:
        """Apply one idle slot of Eq. (12): ``g <- g + epsilon``."""
        value = self._gaps.get(user_id, 0.0) + self.epsilon
        self._gaps[user_id] = value
        return value

    def on_scheduled(self, user_id: int, scheduled_gap: float) -> float:
        """The user was scheduled; its gap becomes the Eq. (4) estimate."""
        if scheduled_gap < 0:
            raise ValueError("scheduled_gap must be non-negative")
        self._gaps[user_id] = scheduled_gap
        self._history.setdefault(user_id, []).append(scheduled_gap)
        return scheduled_gap

    def on_update_applied(self, user_id: int, realized_gap: Optional[float] = None) -> None:
        """The user's upload was applied; record and reset its gap."""
        if realized_gap is not None:
            if realized_gap < 0:
                raise ValueError("realized_gap must be non-negative")
            self._history.setdefault(user_id, []).append(realized_gap)
        self._gaps[user_id] = 0.0

    def total_gap(self, user_ids: Optional[List[int]] = None) -> float:
        """``G(t)``: the sum of current gaps over ``user_ids`` (default all
        tracked users), left to right."""
        if user_ids is None:
            values = self._gaps.values()
        else:
            values = [self._gaps.get(u, 0.0) for u in user_ids]
        return ordered_sum(np.fromiter(values, dtype=np.float64, count=len(values)))

    def history(self, user_id: int) -> List[float]:
        """Recorded (scheduled and realised) gaps of ``user_id``."""
        return list(self._history.get(user_id, []))

    def reset(self) -> None:
        """Forget all state."""
        self._gaps.clear()
        self._history.clear()


def estimate_lag(server: ParameterServer, user_id: int, now_s: float, duration_s: float) -> int:
    """The lag a job ``user_id`` starts now would incur (Algorithm 2 line 4):
    every *other* in-flight job expected to finish within
    ``[now_s, now_s + duration_s]``, found by one scan of the server's jobs."""
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    horizon = now_s + duration_s
    return sum(
        1
        for uid, finish in server._inflight.items()
        if uid != user_id and now_s <= finish <= horizon
    )


def launch_index(schedule: ArrivalSchedule, num_users: int) -> List[Dict[int, ForegroundApp]]:
    """Per user, the application launched at each arrival slot."""
    return [
        {app.arrival_slot: app for app in schedule.arrivals_for(user)}
        for user in range(num_users)
    ]


def count_decision(trace: SimulationTrace, scheduled: bool, corun: bool = False) -> None:
    """Count one scheduling decision (and whether it started a co-run job)."""
    if scheduled:
        trace.decisions["schedule"] += 1
        if corun:
            trace.corun_jobs += 1
        else:
            trace.background_jobs += 1
    else:
        trace.decisions["idle"] += 1


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------


@dataclass
class _UserState:
    """Mutable per-user scheduling state."""

    ready: bool = False
    waiting_slots: int = 0
    base_version: int = 0
    base_params: Optional[np.ndarray] = None
    uploaded_this_round: bool = False


class ReferenceLoopEngine(Coordinator):
    """Simulate the federated system one user object at a time.

    Args:
        config / policy / measurement_table / trace_level: as for
            :class:`~repro.sim.engine.SimulationEngine`.
    """

    def __init__(
        self,
        config: SimulationConfig,
        policy: SchedulingPolicy,
        measurement_table: Optional[MeasurementTable] = None,
        trace_level: str = "full",
    ) -> None:
        rngs = self.build_coordinator(config, policy, measurement_table, False, trace_level)
        self.power_model, self.batteries, self.clients = build_population(
            config, self.table, self.device_specs, self.dataset, rngs["dataset"]
        )
        self.devices: List[MobileDevice] = [
            MobileDevice(user_id=i, spec=spec, slot_seconds=config.slot_seconds)
            for i, spec in enumerate(self.device_specs)
        ]
        self.launches = launch_index(self.arrivals, config.num_users)
        self.gap_tracker = GapTracker(epsilon=config.epsilon)
        self.accountant = EnergyAccountant()
        self._user_states = [_UserState() for _ in range(config.num_users)]
        self._sync_buffer = self.core.sync_buffer
        self._upload_params = config.async_rule is not AsyncUpdateRule.ACCUMULATE

    # -- helpers ------------------------------------------------------------------

    def _make_ready(self, user: int, slot: int) -> None:
        """The user downloads the current model and joins the ready pool."""
        state = self._user_states[user]
        state.ready = True
        state.waiting_slots = 0
        state.base_version, state.base_params = self.core.record_download(
            [user], slot * self.config.slot_seconds
        )

    def _decision_row(self, user: int, slot: int) -> ObservationBatch:
        """The batch of one ``user`` is decided with in ``slot``: its own
        state plus the dict-scan lag estimate, which counts every job this
        slot scheduled so far (each is registered in flight at once)."""
        device, clients = self.devices[user], self.clients
        velocity = clients.velocities[user]
        name = device.spec.name
        app_name = device.current_app.name if device.current_app is not None else None
        duration_slots = device.training_duration_slots()
        columns = dict(
            app_running=device.app_running,
            power_corun_w=self.power_model.corun_power(name, app_name),
            power_app_w=self.power_model.app_power(name, app_name),
            power_training_w=self.power_model.training_power(name),
            power_idle_w=self.power_model.idle_power(name),
            estimated_lag=estimate_lag(
                self.server,
                user,
                now_s=slot * self.config.slot_seconds,
                duration_s=duration_slots * self.config.slot_seconds,
            ),
            momentum_norm=0.0 if velocity is None else vector_norm(velocity),
            learning_rate=clients.optimizer.learning_rate,
            momentum_coeff=clients.optimizer.momentum,
            training_duration_slots=duration_slots,
            waiting_slots=self._user_states[user].waiting_slots,
            current_gap=self.gap_tracker.current_gap(user),
        )
        return ObservationBatch(
            slot=slot,
            slot_seconds=self.config.slot_seconds,
            user_ids=np.array([user], dtype=np.int64),
            **{column: np.array([value]) for column, value in columns.items()},
        )

    def _apply_async_update(self, user: int, slot: int, update: LocalUpdate) -> float:
        """Apply one finished user's upload (see :class:`CouplingCore`)."""
        return self.core.apply_async_update(slot, [user], [update])[0]

    def _maybe_complete_sync_round(
        self, slot: int, stalled_fn: Optional[Callable[[], List[int]]] = None
    ) -> List[int]:
        """Per-user wrapper of the core's quorum completion.

        The quorum/aggregation logic lives in
        :meth:`CouplingCore.maybe_complete_sync_round`; this wrapper adds
        the per-user bookkeeping — gap-tracker resets for the
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

    # -- main loop --------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """The per-user implementation of the slot loop (single-shot)."""
        self.begin_run()
        config = self.config
        sync_mode = self.policy.aggregation is Aggregation.SYNC
        stalled_fn = (
            self._loop_stalled_sync_users if self._has_batteries else None
        )

        # All users download the initial model and arrive at slot 0.
        pending_arrivals = list(range(config.num_users))
        self.core.evaluate(0)

        for slot in range(config.total_slots):
            time_s = slot * config.slot_seconds

            # 1. Applications: expire finished ones, launch new arrivals.
            for user, device in enumerate(self.devices):
                if device.current_app is not None and slot >= device.current_app.end_slot():
                    device.current_app = None
                app = self.launches[user].get(slot)
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
                row = self._decision_row(user, slot)
                device = self.devices[user]
                if self.policy.decide_all(row)[0]:
                    job = device.start_training(slot, self._user_states[user].base_version)
                    self.server.register_inflight_block(
                        (user,), ((slot + job.duration_slots) * config.slot_seconds,)
                    )
                    scheduled_gap = gradient_gap(
                        float(row.momentum_norm[0]),
                        float(row.learning_rate[0]),
                        float(row.momentum_coeff[0]),
                        int(row.estimated_lag[0]),
                    )
                    self.gap_tracker.on_scheduled(user, scheduled_gap)
                    self._user_states[user].ready = False
                    num_scheduled += 1
                    count_decision(self.trace, scheduled=True, corun=device.app_running)
                else:
                    self.gap_tracker.accumulate_idle(user)
                    self._user_states[user].waiting_slots += 1
                    decided_idle_users.append(user)
                    count_decision(self.trace, scheduled=False)
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

            # Training completions: each finisher runs its local round now and
            # the uploads are applied sequentially in ascending user order.
            for user in finished_users:
                state = self._user_states[user]
                tick = self.timers.start()
                (update,) = FLClient.local_train(
                    self.clients,
                    [user],
                    [state.base_params],
                    [state.base_version],
                    include_params=self._upload_params,
                )
                self.timers.stop("training", tick)
                if sync_mode:
                    self._sync_buffer[user] = update
                    state.uploaded_this_round = True
                    self.server.unregister_inflight(user)
                else:
                    realized_gap = self._apply_async_update(user, slot, update)
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
                self.trace.record_user_gaps(
                    time_s,
                    [self.gap_tracker.current_gap(user) for user in range(config.num_users)],
                )
            if slot > 0 and slot % config.eval_interval_slots == 0:
                self.core.evaluate(slot)

        self.core.evaluate(config.total_slots)
        return self.assemble_result(
            self.accountant,
            [b.soc for b in self.batteries if b is not None],
        )

    def _loop_stalled_sync_users(self) -> List[int]:
        """Per-object view of the permanently-stalled synchronous users.

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

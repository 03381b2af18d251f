"""The per-user reference loop: the executable specification of one slot.

:class:`ReferenceLoopEngine` simulates the same system as
:class:`~repro.sim.engine.SimulationEngine` with one Python object per user
(:class:`~repro.device.device.MobileDevice`, :class:`~repro.energy.battery.Battery`,
:class:`~repro.core.staleness.GapTracker`, ...) and one scalar
``policy.decide`` call per ready user — the five-step slot timeline of
:mod:`repro.sim.engine` written the way the paper states it.  It is the
oracle the vectorized kernels, the event-horizon fast-forward and the
sharded engine are held bitwise-equal to (``tests/test_fleet.py``,
``tests/test_properties.py`` and the differential suites built on them).

It is a test instrument, not a product path: about 4x slower than the fleet
kernels, no checkpointing, no resume, and no route from the CLI,
:class:`~repro.analysis.runner.RunSpec`, scenarios or the service.  It
shares the component builders, the :class:`~repro.sim.engine.Coordinator`
base and the :class:`~repro.sim.coupling.CouplingCore` with the engines, so what the
comparison exercises is exactly the per-user mechanics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.comm.messages import ModelDownload
from repro.core.policies import (
    Aggregation,
    Decision,
    DeviceObservation,
    SchedulingPolicy,
    SlotContext,
)
from repro.core.staleness import GapTracker, gradient_gap
from repro.device.device import DeviceState, MobileDevice
from repro.energy.measurements import MeasurementTable
from repro.energy.power_model import EnergyAccountant
from repro.fl.client import LocalUpdate
from repro.fl.dataset import SyntheticCifar10
from repro.fl.server import AsyncUpdateRule
from repro.sim.config import SimulationConfig
from repro.sim.engine import Coordinator, SimulationResult, build_population
from repro.sim.trace import SlotSample

__all__ = ["ReferenceLoopEngine"]


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
        config / policy / dataset / measurement_table / trace_level: as for
            :class:`~repro.sim.engine.SimulationEngine`.
    """

    def __init__(
        self,
        config: SimulationConfig,
        policy: SchedulingPolicy,
        dataset: Optional[SyntheticCifar10] = None,
        measurement_table: Optional[MeasurementTable] = None,
        trace_level: str = "full",
    ) -> None:
        rngs = self.build_coordinator(
            config, policy, dataset, measurement_table, False, trace_level
        )
        self.power_model, self.batteries, self.clients = build_population(
            config, self.table, self.device_specs, self.dataset, rngs["dataset"]
        )
        self.devices: List[MobileDevice] = [
            MobileDevice(user_id=i, spec=spec, slot_seconds=config.slot_seconds)
            for i, spec in enumerate(self.device_specs)
        ]
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

    def _apply_async_update(
        self, user: int, slot: int, base_params: np.ndarray, update: LocalUpdate
    ) -> float:
        """Apply one finished user's upload (see :class:`CouplingCore`)."""
        return self.core.apply_async_update(
            slot, [user], [update], base_params=[base_params]
        )[0]

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

    def _evaluate(self, slot: int) -> None:
        """Evaluate the current global model (see :meth:`CouplingCore.evaluate`)."""
        self.core.evaluate(slot)

    # -- main loop --------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """The original per-user implementation of the slot loop (single-shot)."""
        self.begin_run()
        config = self.config
        sync_mode = self.policy.aggregation is Aggregation.SYNC
        stalled_fn = (
            self._loop_stalled_sync_users if self._has_batteries else None
        )

        # All users download the initial model and arrive at slot 0.
        pending_arrivals = list(range(config.num_users))
        self._evaluate(0)

        for slot in range(config.total_slots):
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

            # Training completions: each finisher runs its local round now and
            # the uploads are applied sequentially in ascending user order.
            for user in finished_users:
                state = self._user_states[user]
                tick = self.timers.start()
                update = self.clients[user].local_train(
                    state.base_params,
                    state.base_version,
                    include_params=self._upload_params,
                )
                self.timers.stop("training", tick)
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

        self._evaluate(config.total_slots)
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

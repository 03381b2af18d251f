"""Runtime state machine of one participating mobile device.

A :class:`MobileDevice` tracks, slot by slot, whether a foreground
application is running, whether the background training service is running,
and therefore which of the four power levels of Eq. (10) applies:

======================  ======================  ==================
training active         app active              power level
======================  ======================  ==================
yes                     yes                     ``P_a'`` (co-running)
yes                     no                      ``P_b``  (training alone)
no                      yes                     ``P_a``  (app alone)
no                      no                      ``P_d``  (idle)
======================  ======================  ==================

The device does not decide anything itself: the scheduling policy
(:mod:`repro.core`) issues ``schedule``/``idle`` decisions and the simulation
engine (:mod:`repro.sim.engine`) calls :meth:`MobileDevice.step` once per
slot, collecting energy, training completions and thermal state.

This class is the *scalar reference implementation*: the engine's default
vectorized backend (:mod:`repro.sim.fleet`) replays :meth:`MobileDevice.step`
as fleet-wide array kernels and is held to bitwise-identical behaviour.  If
you change the step semantics here (power selection, progress accounting,
slowdowns), mirror the change in :mod:`repro.sim.fleet` — the selection
in ``FleetState._retarget_many`` / ``_retarget_one``, the arithmetic in
``FleetState._step`` — ``tests/test_fleet.py`` will catch any divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.device.apps import ForegroundApp
from repro.device.models import DeviceSpec
from repro.device.thermal import ThermalModel
from repro.energy.power_model import DeviceState

__all__ = ["DeviceState", "TrainingJob", "StepOutcome", "MobileDevice"]


@dataclass
class TrainingJob:
    """An in-flight local-training job on the device.

    Attributes:
        start_slot: slot at which training started.
        duration_slots: nominal duration (before contention slowdown).
        remaining_slots: slots of work left (decremented each slot; contention
            with an intensive foreground app makes a slot count for less than
            one slot of progress).
        model_version: parameter-server version downloaded at start (used for
            lag bookkeeping).
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
    """One participant's handset (or dev board) in the federated system.

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

    # -- queries -------------------------------------------------------------

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

    # -- transitions -----------------------------------------------------------

    def launch_app(self, app: ForegroundApp) -> None:
        """The user opens a foreground application.

        Raises:
            RuntimeError: if an application is already in the foreground
                (the arrival process never launches overlapping apps).
        """
        if self.current_app is not None:
            raise RuntimeError(
                f"user {self.user_id}: an application is already running"
            )
        self.current_app = app

    def start_training(self, slot: int, model_version: int) -> TrainingJob:
        """Start a local training job (the policy decided ``schedule``).

        Raises:
            RuntimeError: if a training job is already running.
        """
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

    # -- per-slot advance ------------------------------------------------------

    def step(self, slot: int, power_model) -> StepOutcome:
        """Advance the device by one slot.

        Args:
            slot: current slot index (app expiry is evaluated against it).
            power_model: a :class:`repro.energy.power_model.PowerModel`.

        Returns:
            A :class:`StepOutcome` with the state occupied during the slot,
            the energy consumed, and the finished training job, if any.
        """
        # Expire the foreground app if its duration elapsed before this slot.
        if self.current_app is not None and not self.current_app.is_running(slot):
            self.current_app = None

        state = self.state()
        self.slots_in_state[state] += 1

        app_name = self.current_app.name if self.current_app is not None else None
        power_w = power_model.power(self.spec.name, state, app_name)
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

    # -- reporting ---------------------------------------------------------------

    def utilization_summary(self) -> dict:
        """Fraction of elapsed slots spent in each activity state."""
        total = sum(self.slots_in_state.values())
        if total == 0:
            return {state.value: 0.0 for state in DeviceState}
        return {
            state.value: count / total for state, count in self.slots_in_state.items()
        }

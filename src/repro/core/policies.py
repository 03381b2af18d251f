"""Scheduling-policy interface and the Immediate / Sync-SGD baselines.

A *policy* decides, for every user that is ready to train in a slot, whether
to ``SCHEDULE`` the background training task now or keep the device ``IDLE``
(typically to wait for an application co-running opportunity).  The
simulation engine is policy-agnostic: it hands the slot's whole ready pool
to :meth:`SchedulingPolicy.decide_all` as one :class:`ObservationBatch` and
bookends every slot with :meth:`SchedulingPolicy.begin_slot` /
:meth:`SchedulingPolicy.end_slot` so stateful policies (the Lyapunov online
scheduler) can maintain their queues.

Two baselines from the evaluation live here:

* :class:`ImmediatePolicy` — "runs the background training immediately when a
  device is available regardless of the application arrivals"; the paper's
  energy upper bound and fastest-convergence reference.
* :class:`SyncPolicy` — classic FedAvg/Sync-SGD: every participant trains
  each round and the server waits for all of them before aggregating.  The
  policy itself always schedules; the barrier semantics are enforced by the
  engine through the policy's ``aggregation`` attribute.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Any, Dict, List

import numpy as np

__all__ = [
    "Decision",
    "Aggregation",
    "IdleForecast",
    "ObservationBatch",
    "SameSlotLags",
    "scheduled_lags",
    "SlotContext",
    "SchedulingPolicy",
    "ImmediatePolicy",
    "SyncPolicy",
]


class Decision(str, Enum):
    """Control decision ``alpha_i(t)`` of the paper."""

    SCHEDULE = "schedule"
    IDLE = "idle"


class Aggregation(str, Enum):
    """How the parameter server merges updates under this policy."""

    ASYNC = "async"
    SYNC = "sync"


@dataclass
class ObservationBatch:
    """Struct-of-arrays view of every ready device's observation in one slot.

    The engine builds one batch per slot, so policies
    (:meth:`SchedulingPolicy.decide_all`) evaluate the Eq. (21)-(23)
    decision rule for the whole ready pool with NumPy array arithmetic.
    Every array has one entry per ready user, in ascending ``user_id``
    order, so decision logs are comparable across execution modes.

    All power levels are instantaneous watts; the policy converts them to
    per-slot energies itself (the online policy uses kilojoules so that its
    ``V`` axis matches the paper's Fig. 4).

    Attributes:
        slot: current slot index (shared by all entries).
        slot_seconds: slot length in seconds (shared by all entries).
        user_ids: ``int64`` indices of the ready users.
        app_running: boolean ``s_i(t)`` application status of Eq. (10).
        power_corun_w / power_app_w / power_training_w / power_idle_w:
            the four power levels of Eq. (10), app-specific where an
            application runs and device-average otherwise.
        estimated_lag: server-supplied lag estimates ``l_{d_i}``
            (Algorithm 2, line 4), ``int64``.
        momentum_norm: ``||v_t||_2`` per ready user.
        learning_rate / momentum_coeff: ``eta`` / ``beta`` per ready user.
        training_duration_slots: ``d_i`` in slots, ``int64``.
        waiting_slots: slots spent waiting since the user became ready.
        current_gap: accumulated Eq. (12) gradient gap per ready user.
    """

    slot: int
    slot_seconds: float
    user_ids: np.ndarray
    app_running: np.ndarray
    power_corun_w: np.ndarray
    power_app_w: np.ndarray
    power_training_w: np.ndarray
    power_idle_w: np.ndarray
    estimated_lag: np.ndarray
    momentum_norm: np.ndarray
    learning_rate: np.ndarray
    momentum_coeff: np.ndarray
    training_duration_slots: np.ndarray
    waiting_slots: np.ndarray
    current_gap: np.ndarray

    def __len__(self) -> int:
        return len(self.user_ids)

    def select(self, rows: np.ndarray) -> "ObservationBatch":
        """The entries at ``rows`` (a boolean mask or ascending positions)."""
        return replace(
            self,
            **{
                column.name: getattr(self, column.name)[rows]
                for column in fields(self)[2:]  # past slot / slot_seconds
            },
        )


class SameSlotLags:
    """The same-slot coupling rule: lag estimates that include the jobs
    scheduled earlier in the same slot.

    A server that registers each scheduled job in flight *immediately*
    shows a user decided later in the same slot that job in its lag
    estimate ``l_{d_i}``, while a batch snapshots the in-flight set at the
    start of the slot.  Both consumers (the online policy's repair pass and
    the coordinator's gap write) replay the difference with this one
    walker: :meth:`lag` for the entry being decided, :meth:`record` for each
    entry whose final decision is ``schedule``, in ascending order.

    A job of duration ``d_j`` started now raises the estimate of a user of
    duration ``d_i`` iff its finish ``(slot + d_j) * dt`` lies in
    ``[now, now + d_i * dt]`` — the float comparisons of
    :meth:`repro.fl.server.ParameterServer.estimate_lags`, which depend on
    the two durations alone.  So the window table is built once per slot
    over the *distinct* durations of the walk (one per device model) and a
    lookup reads one running count.

    Args:
        batch: the slot's observation batch.
        positions: the batch positions walked, ascending (default: all);
            :meth:`lag` and :meth:`record` count along them.
    """

    def __init__(self, batch: ObservationBatch, positions: Any = slice(None)) -> None:
        self._durations = batch.training_duration_slots[positions].tolist()
        #: The start-of-slot estimate per walked entry.
        self.lags: List[int] = batch.estimated_lag[positions].tolist()
        slot, slot_seconds = batch.slot, batch.slot_seconds
        now_s = slot * slot_seconds
        distinct = set(self._durations)
        #: ``_raised[d_j]``: the durations whose window holds a ``d_j`` job.
        self._raised: Dict[int, List[int]] = {}
        for d_j in distinct:
            finish = (slot + d_j) * slot_seconds
            self._raised[d_j] = [
                d_i for d_i in distinct if now_s <= finish <= now_s + d_i * slot_seconds
            ]
        #: Same-slot jobs recorded so far inside each duration's window.
        self._extra = dict.fromkeys(distinct, 0)

    def lag(self, position: int) -> int:
        """Lag estimate for entry ``position`` including earlier same-slot schedules."""
        return self.lags[position] + self._extra[self._durations[position]]

    def record(self, position: int) -> None:
        """Commit entry ``position`` as scheduled (its job is now in flight)."""
        for duration in self._raised[self._durations[position]]:
            self._extra[duration] += 1


def scheduled_lags(batch: ObservationBatch, chosen: np.ndarray) -> List[int]:
    """The lag estimate each of the slot's scheduled entries was decided with:
    the start-of-slot estimates of ``chosen`` (ascending batch positions of
    the final ``schedule`` decisions) plus their :class:`SameSlotLags`
    coupling.  A lone scheduler has nobody ahead of it: its estimate stands.
    """
    if len(chosen) < 2:
        return batch.estimated_lag[chosen].tolist()
    coupling = SameSlotLags(batch, chosen)
    coupled = []
    for position in range(len(chosen)):
        coupled.append(coupling.lag(position))
        coupling.record(position)
    return coupled


@dataclass
class IdleForecast:
    """The coupling inputs of the slots ahead of a ready pool kept idle.

    Row ``j`` describes slot ``slot + j`` of a stretch in which nobody
    arrives, is scheduled or finishes: the server's lag estimates at its
    start (``lags``), the pool's Eq. (12) gaps when it decides (``gaps``, row
    ``j`` is ``j`` idle increments on; one row more than slots, the last is
    the gaps after the stretch) and the gap sum ``G(t)`` after its idle
    increments (``gap_sums``: what :meth:`SchedulingPolicy.end_slot` gets).
    """

    slot: int
    lags: np.ndarray
    gaps: np.ndarray
    gap_sums: np.ndarray


@dataclass
class SlotContext:
    """System-wide information handed to the policy at slot boundaries.

    Attributes:
        slot: slot index.
        slot_seconds: slot length in seconds.
        num_arrivals: ``A(t)`` — users that became ready during this slot.
        num_ready: number of users currently waiting for a decision.
        num_training: number of users currently running a training job.
        num_users: total number of participants.
    """

    slot: int
    slot_seconds: float
    num_arrivals: int
    num_ready: int
    num_training: int
    num_users: int


class SchedulingPolicy(ABC):
    """Base class for all scheduling policies."""

    #: Human-readable policy name used in reports and figures.
    name: str = "policy"
    #: Aggregation mode the engine should use with this policy.
    aggregation: Aggregation = Aggregation.ASYNC

    def begin_slot(self, context: SlotContext) -> None:
        """Called once at the beginning of every slot, before any decision."""

    @abstractmethod
    def decide_all(self, batch: ObservationBatch) -> np.ndarray:
        """Return the decisions for a whole slot's ready pool at once.

        Returns a boolean array aligned with ``batch.user_ids`` where
        ``True`` means :attr:`Decision.SCHEDULE`.  Entries are decided in
        batch (ascending user) order; a rule that reads the lag estimate
        must charge each entry the jobs scheduled ahead of it in the same
        slot (:class:`SameSlotLags`), as a server registering every
        scheduled job in flight at once would report.
        """

    def end_slot(self, context: SlotContext, num_scheduled: int, gap_sum: float) -> None:
        """Called once after all decisions of the slot have been made.

        Args:
            context: the slot context passed to :meth:`begin_slot`.
            num_scheduled: ``b(t)`` — users scheduled during this slot.
            gap_sum: ``G(t)`` — the sum of per-user gradient gaps this slot.
        """

    def idle_slots(self, batch: ObservationBatch, forecast: IdleForecast) -> int:
        """How many slots from ``forecast.slot`` on keep all of ``batch`` idle.

        ``batch`` is the ready pool of the last slot, which decided every
        entry ``idle``.  In each slot of ``forecast`` the same users stay
        ready and none of their applications starts or stops, so every
        column of ``batch`` but the two coupling ones (lags and gaps, given
        per slot by ``forecast``) and ``waiting_slots`` still holds.  The
        answer must be exact: the engine replays the certified slots through
        :meth:`record_idle` instead of :meth:`decide_all`.  The default
        certifies nothing, so the policy decides every slot.
        """
        return 0

    def record_idle(self, batch: ObservationBatch, first_slot: int, slots: int) -> None:
        """What ``slots`` all-idle :meth:`decide_all` calls on ``batch`` from
        ``first_slot`` on leave behind (counters, logs), for slots that
        :meth:`idle_slots` certified."""

    def notify_update_applied(self, user_id: int, lag: int, realized_gap: float) -> None:
        """Called when a user's upload is applied at the parameter server."""

    def reset(self) -> None:
        """Clear all internal state before a new simulation run."""

    def decision_cost_evaluations(self) -> int:
        """Number of decision-rule evaluations performed (Table III overhead)."""
        return 0


class ImmediatePolicy(SchedulingPolicy):
    """Fixed policy: schedule training as soon as the device is available.

    This is the evaluation's energy *upper bound* — it ignores application
    arrivals entirely, so any co-running savings happen only by coincidence —
    and its convergence *lower bound* on wall-clock time, because it makes
    the largest possible number of updates.
    """

    name = "immediate"

    def decide_all(self, batch: ObservationBatch) -> np.ndarray:
        return np.ones(len(batch), dtype=bool)


class SyncPolicy(SchedulingPolicy):
    """Classic synchronous federated learning (FedAvg / Sync-SGD).

    All participants train each round from the same global model; the round
    only finishes when the slowest participant (straggler) has uploaded.
    The policy always schedules a ready device — under synchronous
    aggregation the engine only marks a device ready when the current round
    still needs its update — so the barrier comes from the aggregation mode,
    not from the per-device decision.
    """

    name = "sync"
    aggregation = Aggregation.SYNC

    def decide_all(self, batch: ObservationBatch) -> np.ndarray:
        return np.ones(len(batch), dtype=bool)

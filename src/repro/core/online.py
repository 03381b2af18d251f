"""The Lyapunov drift-plus-penalty online scheduler (Section V, Algorithm 2).

Each slot, the controller observes the task queue ``Q(t)``, the virtual
staleness queue ``H(t)`` and the application status of every ready device and
minimises the right-hand side of the drift bound (Eq. 21)::

    min  V * P_i(t) - Q(t) * b_i(t) + H(t) * g_i(t, t + tau_i)

over the two decisions ``schedule`` / ``idle``, per device.  Expanding
``P_i(t)`` with Eq. (10) and ``g_i`` with Eq. (12) gives the decision rules
of Eq. (22) (no staleness backlog) and Eq. (23) (with staleness backlog).

Units: the paper's Fig. 4 sweeps the control knob ``V`` from 0 to 1e5 while
``Q(t)`` stays below ~20, which is only consistent if the energy term is
expressed in **kilojoules** (the unit of the energy axes).  The controller
therefore converts per-slot energies to kJ before weighting by ``V``; with
1-second slots and watt-level powers this reproduces the paper's ``V`` scale
exactly (V around 4000 is the recommended operating point).

Both implementations of Section V.A are provided:

* **centralized** — the server evaluates the rule for every user (it must
  therefore learn each user's application status);
* **distributed** (Algorithm 2) — each user evaluates its own rule locally
  using only its application status, the queue backlogs broadcast by the
  server and the server-supplied lag estimate ``l_{d_i}``.

The two produce identical decisions; they differ in which side performs the
computation and what information crosses the network, which the policy
tracks (``messages_to_server`` / ``messages_to_users``) so the privacy and
overhead discussion of the paper can be quantified.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as np

from repro.columns import ColumnLog
from repro.core.policies import (
    Aggregation,
    Decision,
    IdleForecast,
    ObservationBatch,
    SameSlotLags,
    SchedulingPolicy,
    SlotContext,
)
from repro.core.queues import TaskQueue, VirtualQueue
from repro.core.staleness import gradient_gap, gradient_gap_batch

__all__ = ["BatchDecisionCosts", "OnlineController", "OnlinePolicy"]

#: Joules per kilojoule — the objective works in kJ to match the paper's V axis.
_J_PER_KJ = 1000.0


@dataclass(frozen=True)
class BatchDecisionCosts:
    """The Eq. (21) objective values for a whole ready pool at once.

    Every field holds one value per ready user, aligned with the
    :class:`ObservationBatch` that produced it (``schedule_gap`` is the
    Eq. (4) gap of a job started now, ``idle_gap`` the Eq. (12) gap after
    one more idle slot).  ``schedule_base`` is the part of
    ``schedule_cost`` that does not depend on the lag estimate
    (``schedule_cost == schedule_base + H * schedule_gap``, in that
    operation order).
    """

    schedule_base: np.ndarray
    schedule_cost: np.ndarray
    idle_cost: np.ndarray
    schedule_gap: np.ndarray
    idle_gap: np.ndarray

    def best(self) -> np.ndarray:
        """Boolean mask of users whose minimising decision is ``SCHEDULE``
        (a tie, ``schedule_cost == idle_cost``, schedules)."""
        return self.schedule_cost <= self.idle_cost


class OnlineController:
    """Evaluation of the Eq. (21)–(23) decision rule over a ready pool.

    Args:
        v: the control knob ``V`` trading energy against staleness.
        epsilon: idle-slot gap increment of Eq. (12).
    """

    def __init__(self, v: float, epsilon: float = 0.01) -> None:
        if v < 0:
            raise ValueError("v must be non-negative")
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        self.v = float(v)
        self.epsilon = float(epsilon)
        #: Eq. (4) factor table per ``beta``, filled by the scalar
        #: ``momentum_lag_factor`` as lags are first seen.
        self._lag_factor_tables: Dict[float, np.ndarray] = {}  # reprolint: static (derived cache)

    def evaluate_batch(
        self,
        batch: ObservationBatch,
        q_length: float,
        h_length: float,
    ) -> BatchDecisionCosts:
        """Evaluate both branches of Eq. (21) for every ready user at once.

        Per user and slot, with energies in kJ::

            schedule = V * E_train - Q + H * gap(lag)
            idle     = V * E_idle      + H * (g_i + epsilon)

        where ``E_train`` / ``E_idle`` are the Eq. (10) slot energies with
        and without the training task (co-run / app alone while an app
        runs, training / idle otherwise), ``gap`` the Eq. (4) estimate and
        ``g_i + epsilon`` the Eq. (12) idle increment.  Each element follows
        the operation order of the per-user rule, so a batch of one and a
        batch of many agree bit for bit.
        """
        slot_s = batch.slot_seconds
        schedule_energy_kj = (
            np.where(batch.app_running, batch.power_corun_w, batch.power_training_w)
            * slot_s
            / _J_PER_KJ
        )
        idle_energy_kj = (
            np.where(batch.app_running, batch.power_app_w, batch.power_idle_w)
            * slot_s
            / _J_PER_KJ
        )
        schedule_gap = gradient_gap_batch(
            batch.momentum_norm,
            batch.learning_rate,
            batch.momentum_coeff,
            batch.estimated_lag,
            self._lag_factor_tables,
        )
        idle_gap = batch.current_gap + self.epsilon

        schedule_base = self.v * schedule_energy_kj - q_length
        schedule_cost = schedule_base + h_length * schedule_gap
        idle_cost = self.v * idle_energy_kj + h_length * idle_gap
        return BatchDecisionCosts(
            schedule_base=schedule_base,
            schedule_cost=schedule_cost,
            idle_cost=idle_cost,
            schedule_gap=schedule_gap,
            idle_gap=idle_gap,
        )


class OnlinePolicy(SchedulingPolicy):
    """System-level online scheduling policy (the paper's proposal).

    Maintains the task queue ``Q(t)`` and the virtual staleness queue
    ``H(t)`` and evaluates each slot's decisions with an
    :class:`OnlineController`.

    Args:
        v: the control knob ``V`` (the paper recommends around 4000).
        staleness_bound: ``Lb``, the per-slot gradient-gap budget of Eq. (14).
        epsilon: idle-slot gap increment of Eq. (12).
        distributed: use the Algorithm 2 distributed implementation
            (identical decisions; different information flow accounting).
    """

    name = "online"
    aggregation = Aggregation.ASYNC

    def __init__(
        self,
        v: float = 4000.0,
        staleness_bound: float = 500.0,
        epsilon: float = 0.01,
        distributed: bool = True,
    ) -> None:
        self.v = float(v)
        self.staleness_bound = float(staleness_bound)
        self.epsilon = float(epsilon)
        self.distributed = distributed
        self.controller = OnlineController(v=v, epsilon=epsilon)
        self.task_queue = TaskQueue()
        self.virtual_queue = VirtualQueue(staleness_bound)
        self._arrivals_this_slot = 0
        self._decision_evaluations = 0
        #: Count of scalar values sent user -> server (duration, decision).
        self.messages_to_server = 0
        #: Count of scalar values sent server -> user (lag, queue backlogs).
        self.messages_to_users = 0
        #: One row per decision, in decision order; read it as
        #: :attr:`decision_log`.
        self._decision_log = ColumnLog(
            slot=np.int64, user_id=np.int64, schedule=np.bool_
        )

    @property
    def decision_log(self) -> List[Tuple[int, int, Decision]]:
        """Every decision so far as ``(slot, user_id, decision)``, in order."""
        return [
            (slot, user, Decision.SCHEDULE if flag else Decision.IDLE)
            for slot, user, flag in self._decision_log.rows()
        ]

    # -- SchedulingPolicy interface ------------------------------------------------

    def begin_slot(self, context: SlotContext) -> None:
        self._arrivals_this_slot = context.num_arrivals

    def decide_all(self, batch: ObservationBatch) -> np.ndarray:
        """Batched Eq. (22)/(23) decisions for a whole slot's ready pool.

        Evaluates the drift-plus-penalty objective for every ready user with
        one :meth:`OnlineController.evaluate_batch` call.  The queue backlogs
        ``Q(t)`` / ``H(t)`` are frozen for the duration of the slot, exactly
        as the paper's controller broadcasts them once per slot.

        One sequential effect survives batching: a scheduled job is in
        flight at once, so a user decided later in the same slot sees a
        larger lag estimate ``l_{d_i}``.  Because the schedule cost of
        Eq. (21) is non-decreasing in the lag (the Eq. (4) gap factor grows
        with it) while the idle cost ignores it, a user the
        speculative batch keeps idle stays idle under any larger lag — only
        speculative *schedulers* can flip, and only with another one ahead
        of them in the slot.  :meth:`_repair` walks just those; decisions
        match the per-user loop bit for bit.
        """
        n = len(batch)
        self._count_evaluations(n)
        h_length = self.virtual_queue.length
        costs = self.controller.evaluate_batch(batch, self.task_queue.length, h_length)
        schedule = costs.best()
        chosen = np.flatnonzero(schedule)
        if chosen.size > 1:
            self._repair(batch, costs, schedule, chosen, h_length)
        # The log copies: the batch columns may be views over a transport
        # buffer and the caller owns ``schedule``.
        self._decision_log.extend(np.full(n, batch.slot), batch.user_ids, schedule)
        return schedule

    def _count_evaluations(self, n: int) -> None:
        """Count ``n`` rule evaluations and the messages they exchange."""
        self._decision_evaluations += n
        if self.distributed:
            # Algorithm 2: the user sends its duration, the server answers
            # with the lag estimate and the queue backlogs, the user decides
            # and reports only its decision.
            self.messages_to_server += 2 * n  # duration d_i, then alpha_i(t)
            self.messages_to_users += 3 * n  # l_{d_i}, Q(t), H(t)
        else:
            # Centralized: the user must reveal its application status and
            # momentum norm so the server can evaluate the rule.
            self.messages_to_server += 3 * n  # s_i(t), ||v_t||, d_i
            self.messages_to_users += 1 * n  # alpha_i(t)

    def idle_slots(self, batch: ObservationBatch, forecast: IdleForecast) -> int:
        """Eq. (21) for every slot of ``forecast`` at once; the first slot in
        which some entry of ``batch`` would schedule ends the idle run.

        Per slot the inputs are the slot path's: ``Q(t)`` is constant (no
        arrival, no service), ``H(t)`` follows Eq. (16) over the forecast gap
        sums, lags and gaps are the forecast's rows.  One
        :meth:`OnlineController.evaluate_batch` call with one row per slot
        gives every cost bit for bit.  The repair pass is moot: it only
        flips speculative schedulers, and the first of those never flips.
        """
        bound = self.virtual_queue.staleness_bound
        h_length = self.virtual_queue.length
        backlogs = []
        for gap_sum in forecast.gap_sums.tolist():
            backlogs.append(h_length)
            h_length = max(h_length + gap_sum - bound, 0.0)
        costs = self.controller.evaluate_batch(
            replace(batch, estimated_lag=forecast.lags, current_gap=forecast.gaps[:-1]),
            self.task_queue.length,
            np.array(backlogs)[:, None],
        )
        busy = costs.best().any(axis=1)
        return int(busy.argmax()) if busy.any() else len(busy)

    def record_idle(self, batch: ObservationBatch, first_slot: int, slots: int) -> None:
        n = len(batch)
        self._count_evaluations(n * slots)
        self._decision_log.extend(
            np.repeat(np.arange(first_slot, first_slot + slots), n),
            np.tile(batch.user_ids, slots),
            np.zeros(n * slots, dtype=bool),
        )
        self._arrivals_this_slot = 0

    @staticmethod
    def _repair(
        batch: ObservationBatch,
        costs: BatchDecisionCosts,
        schedule: np.ndarray,
        chosen: np.ndarray,
        h_length: float,
    ) -> None:
        """Re-decide the speculative schedulers ``chosen`` under same-slot lags.

        Walks them in ascending order on Python scalars hoisted once per
        column; one whose estimate an earlier same-slot schedule raised is
        re-evaluated as ``schedule_base + H * gap(lag) <= idle_cost`` — the
        rule of :meth:`OnlineController.evaluate_batch` for one user — and
        clears its entry of ``schedule`` when it flips to idle (it is then not
        recorded, so later users do not see it).
        """
        coupling = SameSlotLags(batch, chosen)
        base = costs.schedule_base[chosen].tolist()
        idle = costs.idle_cost[chosen].tolist()
        norms = batch.momentum_norm[chosen].tolist()
        rates = batch.learning_rate[chosen].tolist()
        betas = batch.momentum_coeff[chosen].tolist()
        for position, index in enumerate(chosen.tolist()):
            lag = coupling.lag(position)
            if lag != coupling.lags[position]:
                gap = gradient_gap(norms[position], rates[position], betas[position], lag)
                if not base[position] + h_length * gap <= idle[position]:
                    schedule[index] = False
                    continue
            coupling.record(position)

    def end_slot(self, context: SlotContext, num_scheduled: int, gap_sum: float) -> None:
        self.task_queue.update(arrivals=self._arrivals_this_slot, services=num_scheduled)
        self.virtual_queue.update(gap_sum)

    def reset(self) -> None:
        self.task_queue.reset()
        self.virtual_queue.reset(0.0)
        self._arrivals_this_slot = 0
        self._decision_evaluations = 0
        self.messages_to_server = 0
        self.messages_to_users = 0
        self._decision_log.clear()

    def decision_cost_evaluations(self) -> int:
        return self._decision_evaluations

    # -- diagnostics -----------------------------------------------------------------

    def queue_history(self) -> List[float]:
        """History of ``Q(t)`` over the run."""
        return self.task_queue.history()

    def virtual_queue_history(self) -> List[float]:
        """History of ``H(t)`` over the run."""
        return self.virtual_queue.history()

    def mean_queue_length(self) -> float:
        """Time-averaged ``Q(t)``."""
        return self.task_queue.time_average()

    def mean_virtual_queue_length(self) -> float:
        """Time-averaged ``H(t)``."""
        return self.virtual_queue.time_average()

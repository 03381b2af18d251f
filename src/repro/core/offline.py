"""Offline scheduling: the knapsack problem P1 and Algorithm 1.

Section IV of the paper studies an offline problem in which all application
arrivals are known in advance.  For every user ``i`` the scheduler chooses
``x_i = 1`` (defer training and co-run it with the user's upcoming
application, saving ``s_i = P_b + P_a - P_a'`` power for the duration) or
``x_i = 0`` (train separately, saving nothing), subject to the sum of
gradient gaps staying within the staleness budget ``Lb``:

    max  sum_i s_i x_i      s.t.  sum_i g_i x_i <= Lb,  x_i in {0, 1}

This is a 0/1 knapsack; Algorithm 1 solves it by dynamic programming in
``O(n * Lb)``.  The circular dependency of the gaps on other users' decisions
is broken by the Lemma 1 lag upper bound, which counts how many other users'
training intervals *could* overlap user ``i``'s.

:class:`OfflinePolicy` wraps the solver into the look-ahead policy used in
the evaluation: every ``window`` seconds it peeks at the arrival schedule for
the next window (the oracle), solves the knapsack over the users that are
ready, and converts the solution into per-user plans (co-run at the arrival,
schedule immediately, or keep waiting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.policies import (
    IdleForecast,
    ObservationBatch,
    SchedulingPolicy,
    SlotContext,
)
from repro.core.staleness import gradient_gap

__all__ = ["lag_upper_bound", "KnapsackItem", "KnapsackSolution", "KnapsackSolver", "OfflinePolicy"]


def _interval_contains(value: float, interval: Tuple[float, float]) -> bool:
    """Closed-interval membership used by the Lemma 1 indicator."""
    return interval[0] <= value <= interval[1]


def lag_upper_bound(
    user_index: int,
    start_times: Sequence[float],
    app_arrival_times: Sequence[Optional[float]],
    durations: Sequence[float],
) -> int:
    """Upper bound on the lag of ``user_index`` (Lemma 1).

    For user ``i`` with beginning time ``t_i``, application arrival ``t_a_i``
    and training duration ``d_i``, every other user ``j`` can finish its
    training either at ``t_j + d_j`` (immediate execution) or at
    ``t_a_j + d_j`` (co-running).  If either possible finish time falls in
    one of ``i``'s two candidate training intervals ``[t_i, t_i + d_i]`` or
    ``[t_a_i, t_a_i + d_i]``, user ``j`` may contribute one update to ``i``'s
    lag.  Summing the indicator over ``j != i`` bounds the lag without
    knowing anybody's actual decision.

    Args:
        user_index: index of user ``i`` in the three sequences.
        start_times: ``t_j`` for every user (time the user became ready).
        app_arrival_times: ``t_a_j`` for every user, ``None`` when the user
            has no upcoming application arrival.
        durations: training duration ``d_j`` for every user.

    Returns:
        The Lemma 1 bound on ``l_{tau_i}`` (at most ``n - 1``).
    """
    n = len(start_times)
    if not (len(app_arrival_times) == len(durations) == n):
        raise ValueError("all sequences must have the same length")
    if not 0 <= user_index < n:
        raise IndexError("user_index out of range")

    t_i = start_times[user_index]
    d_i = durations[user_index]
    intervals: List[Tuple[float, float]] = [(t_i, t_i + d_i)]
    t_a_i = app_arrival_times[user_index]
    if t_a_i is not None:
        intervals.append((t_a_i, t_a_i + d_i))

    bound = 0
    for j in range(n):
        if j == user_index:
            continue
        candidate_finishes = [start_times[j] + durations[j]]
        if app_arrival_times[j] is not None:
            candidate_finishes.append(app_arrival_times[j] + durations[j])
        if any(
            _interval_contains(finish, interval)
            for finish in candidate_finishes
            for interval in intervals
        ):
            bound += 1
    return bound


@dataclass(frozen=True)
class KnapsackItem:
    """One user's candidate co-running decision.

    Attributes:
        user_id: the user.
        energy_saving_j: ``s_i`` — energy saved (J) by co-running instead of
            separate execution.
        gradient_gap: ``g_i`` — the gap cost of deferring training until the
            application arrival (Eq. 4 evaluated at the Lemma 1 lag bound).
        app_arrival_s: absolute time of the application arrival to co-run with.
        app_name: which application arrives.
    """

    user_id: int
    energy_saving_j: float
    gradient_gap: float
    app_arrival_s: float
    app_name: Optional[str] = None


@dataclass
class KnapsackSolution:
    """Result of one knapsack solve."""

    selected_user_ids: List[int]
    total_saving_j: float
    total_gap: float
    capacity: float


class KnapsackSolver:
    """Pseudo-polynomial dynamic program of Algorithm 1.

    Gradient gaps are real-valued, so they are discretised onto an integer
    grid of ``resolution`` steps spanning the capacity ``Lb``; weights round
    *up* so the staleness budget is never exceeded by discretisation error.

    Args:
        capacity: the staleness budget ``Lb``.
        resolution: number of integer capacity steps used by the DP table.
    """

    def __init__(self, capacity: float, resolution: int = 1000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.capacity = float(capacity)
        self.resolution = int(resolution)

    def _quantise(self, gap: float) -> int:
        """Round a gap up to the integer grid (never past the full capacity)."""
        step = self.capacity / self.resolution
        steps = int(-((-gap + 1e-12) // step))  # ceil division, guarded against float noise
        if gap <= self.capacity:
            steps = min(steps, self.resolution)
        return steps

    def solve(self, items: Sequence[KnapsackItem]) -> KnapsackSolution:
        """Solve the 0/1 knapsack over ``items``.

        Items with non-positive saving are never selected (selecting them can
        only waste staleness budget); items whose individual gap already
        exceeds the capacity are infeasible and skipped.

        The Algorithm 1 DP is vectorized over the capacity axis: one NumPy
        rolling ``best_value`` array updated per item (the classic downward
        capacity sweep reads only pre-item values, so the whole sweep is one
        shifted-compare-select), plus a per-item boolean ``take`` table that
        the backtrack walks to recover the selection.  At ``resolution=1000``
        this replaces the ~``items x 1000`` Python inner loop that used to
        run once per planning window.  Selections, values and tie-breaks are
        identical to the scalar DP: updates are strict improvements, so the
        last item that updated a cell is unique, and backtracking from the
        first maximising capacity reproduces the forward chosen-list exactly.
        """
        candidates = [
            (index, item)
            for index, item in enumerate(items)
            if item.energy_saving_j > 0.0 and item.gradient_gap <= self.capacity
        ]
        cap_steps = self.resolution
        best_value = np.zeros(cap_steps + 1)
        take = np.zeros((len(candidates), cap_steps + 1), dtype=bool)
        weights = []
        for position, (index, item) in enumerate(candidates):
            weight = max(0, self._quantise(item.gradient_gap))
            weights.append(weight)
            value = item.energy_saving_j
            if weight == 0:
                # value > 0, so taking the item improves every capacity.
                best_value += value
                take[position, :] = True
                continue
            shifted = best_value[: cap_steps + 1 - weight] + value
            better = shifted > best_value[weight:]
            best_value[weight:][better] = shifted[better]
            take[position, weight:] = better
        best_y = int(np.argmax(best_value))  # first maximum = smallest capacity
        selected: List[int] = []
        y = best_y
        for position in range(len(candidates) - 1, -1, -1):
            if take[position, y]:
                selected.append(candidates[position][0])
                y -= weights[position]
        selected.reverse()
        return KnapsackSolution(
            selected_user_ids=[items[i].user_id for i in selected],
            total_saving_j=float(best_value[best_y]),
            total_gap=sum(items[i].gradient_gap for i in selected),
            capacity=self.capacity,
        )


#: Per-user plan codes produced by one window of offline planning.  No plan
#: — deferred to a later window, or ready only since the last one — waits,
#: but co-runs opportunistically with any app that comes to the foreground.
_NO_PLAN, _IMMEDIATE, _CORUN = range(3)

#: The :class:`ObservationBatch` columns a planning window reads.
_PLANNING_FIELDS = (
    "slot_seconds",
    "training_duration_slots",
    "momentum_norm",
    "learning_rate",
    "momentum_coeff",
    "power_training_w",
    "power_app_w",
    "power_corun_w",
)


class OfflinePolicy(SchedulingPolicy):
    """Windowed offline (knapsack) scheduling policy.

    The evaluation invokes the offline algorithm every ``window_slots``
    (500 s in the paper) with the staleness budget ``Lb`` and full knowledge
    of the application arrivals inside the window.

    Args:
        staleness_bound: the knapsack capacity ``Lb``.
        window_slots: look-ahead window length in slots.
        epsilon: per-slot gap increment applied to users asked to wait, used
            only to keep the planning gaps comparable with the online policy.
        schedule_unmatched_immediately: what to do with ready users that have
            no application arrival inside the window.  ``False`` (default)
            reproduces the paper's observed behaviour — with a relaxed budget
            the offline solution "acts almost equivalently to a greedy scheme
            that is always waiting for co-running opportunities" — while
            ``True`` turns them into immediate executions (an ablation).
        resolution: DP discretisation (see :class:`KnapsackSolver`).
        gap_metric: ``"gradient_gap"`` (the paper's Definition 2 weight) or
            ``"lag"`` — an ablation that weighs each item by the raw Lemma 1
            lag count instead, as a pre-gradient-gap formulation would.  With
            ``"lag"`` the budget ``Lb`` is interpreted in units of updates.
    """

    name = "offline"

    def __init__(
        self,
        staleness_bound: float = 1000.0,
        window_slots: int = 500,
        epsilon: float = 0.01,
        schedule_unmatched_immediately: bool = False,
        resolution: int = 1000,
        gap_metric: str = "gradient_gap",
    ) -> None:
        if window_slots <= 0:
            raise ValueError("window_slots must be positive")
        if gap_metric not in ("gradient_gap", "lag"):
            raise ValueError("gap_metric must be 'gradient_gap' or 'lag'")
        self.staleness_bound = float(staleness_bound)
        self.window_slots = int(window_slots)
        self.epsilon = float(epsilon)
        self.schedule_unmatched_immediately = schedule_unmatched_immediately
        self.gap_metric = gap_metric
        self.solver = KnapsackSolver(staleness_bound, resolution=resolution)
        self._oracle = None
        self._last_planned_window = -1
        self._decision_evaluations = 0
        self.solutions: List[KnapsackSolution] = []
        self._clear_users()

    def _clear_users(self) -> None:
        """Forget every user: empty per-user columns, grown by :meth:`_reserve`."""
        #: Users decided ``idle`` and not scheduled since — the next
        #: window's knapsack candidates.
        self._pending = np.zeros(0, dtype=bool)
        #: Latest observed ``_PLANNING_FIELDS`` values, one row per field.
        self._planning_inputs = np.zeros((len(_PLANNING_FIELDS), 0))
        self._plan_action = np.zeros(0, dtype=np.int8)
        self._plan_corun_slot = np.zeros(0, dtype=np.int64)

    def _reserve(self, num_users: int) -> None:
        """Grow the per-user columns to cover user ids below ``num_users``."""
        have = self._pending.size
        if num_users <= have:
            return
        grow = (0, max(num_users, 2 * have) - have)
        self._pending = np.pad(self._pending, grow)
        self._planning_inputs = np.pad(self._planning_inputs, ((0, 0), grow))
        self._plan_action = np.pad(self._plan_action, grow)
        self._plan_corun_slot = np.pad(self._plan_corun_slot, grow)

    # -- oracle wiring -----------------------------------------------------------

    def attach_oracle(self, oracle) -> None:
        """Provide the arrival oracle (``repro.sim.arrivals.ArrivalSchedule``).

        The engine calls this once, when it is constructed; the policy cannot
        work without future knowledge, which is exactly why it is
        offline-only.  Attachment is idempotent — re-attaching the same
        oracle is a no-op — but swapping in a *different* oracle after any
        window has been planned raises, so oracle state cannot be silently
        rebuilt mid-experiment.

        Raises:
            RuntimeError: if a different oracle is attached after planning
                has started (call :meth:`reset` first to reuse the policy).
        """
        if oracle is self._oracle:
            return
        if self._last_planned_window != -1:
            raise RuntimeError(
                "OfflinePolicy is already planning against another oracle; "
                "call reset() before attaching a different arrival schedule"
            )
        self._oracle = oracle

    # -- planning ----------------------------------------------------------------

    def _plan_window(self, window_start: int) -> None:
        """Solve the knapsack for the window starting at ``window_start``."""
        if self._oracle is None:
            raise RuntimeError("OfflinePolicy needs an arrival oracle; call attach_oracle()")
        ready = np.flatnonzero(self._pending)
        if not ready.size:
            return
        window_end = window_start + self.window_slots
        (
            slot_seconds,
            duration_slots,
            momentum_norms,
            learning_rates,
            momentum_coeffs,
            training_w,
            app_w,
            corun_w,
        ) = self._planning_inputs[:, ready].tolist()
        ready = ready.tolist()

        start_times = [float(window_start)] * len(ready)
        durations = [d * s for d, s in zip(duration_slots, slot_seconds)]
        arrival_times: List[Optional[float]] = []
        arrivals: List[Optional[Tuple[int, str]]] = []
        for position, user_id in enumerate(ready):
            arrival = self._oracle.next_arrival(user_id, window_start, window_end)
            arrivals.append(arrival)
            arrival_times.append(
                None if arrival is None else float(arrival[0]) * slot_seconds[position]
            )

        items: List[KnapsackItem] = []
        for position, (user_id, arrival) in enumerate(zip(ready, arrivals)):
            if arrival is None:
                continue
            arrival_slot, app_name = arrival
            lag_bound = lag_upper_bound(position, start_times, arrival_times, durations)
            if self.gap_metric == "lag":
                gap = float(lag_bound)
            else:
                gap = gradient_gap(
                    momentum_norms[position],
                    learning_rates[position],
                    momentum_coeffs[position],
                    lag_bound,
                )
                # Waiting for the arrival also accrues the idle-slot increment.
                gap += self.epsilon * max(0, arrival_slot - window_start)
            saving_w = training_w[position] + app_w[position] - corun_w[position]
            items.append(
                KnapsackItem(
                    user_id=user_id,
                    energy_saving_j=saving_w * durations[position],
                    gradient_gap=gap,
                    app_arrival_s=arrival_slot * slot_seconds[position],
                    app_name=app_name,
                )
            )

        solution = self.solver.solve(items)
        self.solutions.append(solution)
        selected = set(solution.selected_user_ids)
        unmatched = _IMMEDIATE if self.schedule_unmatched_immediately else _NO_PLAN
        for user_id, arrival in zip(ready, arrivals):
            if user_id in selected:
                self._plan_action[user_id] = _CORUN
                self._plan_corun_slot[user_id] = arrival[0]
            else:
                self._plan_action[user_id] = _IMMEDIATE if arrival else unmatched

    # -- SchedulingPolicy interface -------------------------------------------------

    def begin_slot(self, context: SlotContext) -> None:
        window_index = context.slot // self.window_slots
        if window_index != self._last_planned_window:
            self._plan_window(window_index * self.window_slots)
            self._last_planned_window = window_index

    def decide_all(self, batch: ObservationBatch) -> np.ndarray:
        """The plan lookup for a whole ready pool at once.

        Every entry becomes pending with its planning inputs.  A planned
        ``immediate`` trains now; everyone else trains once an app is in
        the foreground — a planned ``corun`` from its planned slot on.  A
        scheduled entry leaves the pending set and drops its plan.  The
        rule never reads the lag estimate, so same-slot lag coupling cannot
        change a decision.
        """
        users = batch.user_ids
        if not len(users):
            return np.zeros(0, dtype=bool)
        self._decision_evaluations += len(users)
        self._reserve(int(users[-1]) + 1)  # user_ids ascend
        for row, name in zip(self._planning_inputs, _PLANNING_FIELDS):
            row[users] = getattr(batch, name)
        action = self._plan_action[users]
        schedule = (action == _IMMEDIATE) | (
            batch.app_running
            & ((action != _CORUN) | (batch.slot >= self._plan_corun_slot[users]))
        )
        self._pending[users] = ~schedule
        self._plan_action[users[schedule]] = _NO_PLAN
        return schedule

    def idle_slots(self, batch: ObservationBatch, forecast: IdleForecast) -> int:
        """A pool with no foreground app and no ``_IMMEDIATE`` plan stays idle
        under the plan lookup until :meth:`begin_slot` plans the next window."""
        slot = forecast.slot
        window = slot // self.window_slots
        if (
            window != self._last_planned_window
            or batch.app_running.any()
            or (self._plan_action[batch.user_ids] == _IMMEDIATE).any()
        ):
            return 0
        return min(len(forecast.gap_sums), (window + 1) * self.window_slots - slot)

    def record_idle(self, batch: ObservationBatch, first_slot: int, slots: int) -> None:
        # Every other write of an all-idle decide_all repeats the last one's.
        self._decision_evaluations += len(batch) * slots

    def reset(self) -> None:
        self._clear_users()
        self._last_planned_window = -1
        self._decision_evaluations = 0
        self.solutions.clear()

    def decision_cost_evaluations(self) -> int:
        return self._decision_evaluations

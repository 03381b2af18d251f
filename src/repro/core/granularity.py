"""Scheduling-granularity control (the trade-off the paper defers).

Section VII ("Energy Overhead") notes that the per-slot evaluation of the
online decision rule costs a few percent of idle power, and that the overhead
can be reduced by enlarging the decision interval — at the risk of missing
co-running opportunities whose application finishes before the next decision
point.  The paper defers the quantitative study to an extended version; this
module provides the mechanism so the ablation benchmark can run it:

:class:`DecisionIntervalPolicy` wraps any scheduling policy and only consults
it every ``interval_slots`` slots (per device).  Between decision points the
device idles, exactly as a coarser-grained JobScheduler period would behave.
"""

from __future__ import annotations

import numpy as np

from repro.core.policies import ObservationBatch, SchedulingPolicy, SlotContext

__all__ = ["DecisionIntervalPolicy"]


class DecisionIntervalPolicy(SchedulingPolicy):
    """Evaluate the wrapped policy only every ``interval_slots`` slots.

    Args:
        inner: the policy whose decisions are rate-limited.
        interval_slots: decision period; 1 reduces to the inner policy.
        align_to_arrival: when ``True`` (default) the interval is counted per
            device from the slot it became ready (its ``waiting_slots``), so a
            freshly-ready device gets an immediate first decision; when
            ``False`` the interval is aligned to the global slot index, which
            models a fixed JobScheduler period.
    """

    def __init__(
        self,
        inner: SchedulingPolicy,
        interval_slots: int,
        align_to_arrival: bool = True,
    ) -> None:
        if interval_slots <= 0:
            raise ValueError("interval_slots must be positive")
        self.inner = inner
        self.interval_slots = int(interval_slots)
        self.align_to_arrival = align_to_arrival
        self.name = f"{inner.name}@{interval_slots}s"
        self.aggregation = inner.aggregation

    # -- delegation -------------------------------------------------------------

    @property
    def task_queue(self):
        """Expose the inner policy's task queue (if any) for tracing."""
        return getattr(self.inner, "task_queue", None)

    @property
    def virtual_queue(self):
        """Expose the inner policy's virtual queue (if any) for tracing."""
        return getattr(self.inner, "virtual_queue", None)

    def begin_slot(self, context: SlotContext) -> None:
        self.inner.begin_slot(context)

    def end_slot(self, context: SlotContext, num_scheduled: int, gap_sum: float) -> None:
        self.inner.end_slot(context, num_scheduled, gap_sum)

    def notify_update_applied(self, user_id: int, lag: int, realized_gap: float) -> None:
        self.inner.notify_update_applied(user_id, lag, realized_gap)

    def reset(self) -> None:
        self.inner.reset()

    def decision_cost_evaluations(self) -> int:
        """Only the slots where the inner rule actually ran cost energy."""
        return self.inner.decision_cost_evaluations()

    # -- the rate limiter ----------------------------------------------------------

    def decide_all(self, batch: ObservationBatch) -> np.ndarray:
        """The inner rule on the entries at a decision point; the rest idle.

        Skipped entries are never scheduled, so they take no part in the
        inner rule's same-slot lag coupling.
        """
        if self.align_to_arrival:
            due = batch.waiting_slots % self.interval_slots == 0
        else:
            due = np.full(len(batch), batch.slot % self.interval_slots == 0)
        schedule = np.zeros(len(batch), dtype=bool)
        if due.any():
            schedule[due] = self.inner.decide_all(batch.select(due))
        return schedule

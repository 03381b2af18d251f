"""Task queue, virtual staleness queue and the Lyapunov machinery.

The online scheduler transforms the constrained problem P2 into a queue
stability problem (Section V):

* the **task queue** ``Q(t)`` counts users waiting to be scheduled and
  evolves as ``Q(t+1) = max(Q(t) - b(t), 0) + A(t)`` (Eq. 15), where ``A(t)``
  is the number of users that became ready at ``t`` and ``b(t)`` the number
  of users the controller scheduled;
* the **virtual queue** ``H(t)`` enforces the time-averaged gradient-gap
  constraint (Eq. 14) and evolves as
  ``H(t+1) = max(H(t) + G(t) - Lb, 0)`` (Eq. 16), where ``G(t)`` is the sum
  of per-user gradient gaps in slot ``t``.

The Lyapunov function is ``L(Theta) = (Q^2 + H^2) / 2`` (Eq. 17) and the
drift-plus-penalty bound of Lemma 2 involves the constant
``B = (A_max^2 + b_max^2 + G_max^2 + Lb^2) / 2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

__all__ = ["TaskQueue", "VirtualQueue", "LyapunovAnalyzer"]


class _BacklogSeries:
    """Shared backlog bookkeeping: optional history plus streamed aggregates.

    When :attr:`track_history` is ``False`` the per-slot backlog history is
    not materialised — only the streamed aggregates (entry count, running
    sum, current length) are maintained, so a million-slot run holds O(1)
    queue telemetry.  The running sum adds entries in the exact
    left-to-right order a history-backed ``sum(history)`` would, so
    :meth:`time_average` is bitwise identical across the two modes.  The
    contract lives here once; :class:`TaskQueue` and :class:`VirtualQueue`
    both inherit it.
    """

    #: Materialise the per-entry history (``True``) or stream only.
    track_history = True

    def _reset_series(self, initial: float) -> None:
        if initial < 0:
            raise ValueError("queue length cannot be negative")
        self._length = float(initial)
        self._history: List[float] = []
        self._entry_count = 0
        self._entry_sum = 0.0
        self._record(float(initial))

    def _record(self, value: float) -> None:
        if self.track_history:
            self._history.append(value)
        self._entry_count += 1
        self._entry_sum += value

    def _record_repeat(self, value: float, count: int) -> None:
        """``count`` identical entries (repeated additions, fold-exact)."""
        if self.track_history:
            self._history.extend([value] * count)
        self._entry_count += count
        for _ in range(count):
            self._entry_sum += value

    def _record_sequence(self, values: List[float]) -> None:
        if self.track_history:
            self._history.extend(values)
        self._entry_count += len(values)
        for value in values:
            self._entry_sum += value

    @property
    def length(self) -> float:
        """Current backlog."""
        return self._length

    def history(self) -> List[float]:
        """Backlog after every update (empty when ``track_history`` is off)."""
        return list(self._history)

    def time_average(self) -> float:
        """Time-averaged backlog over every recorded entry (streamed)."""
        return self._entry_sum / self._entry_count


class TaskQueue(_BacklogSeries):
    """The actual task queue ``Q(t)`` of Definition 3 / Eq. (15).

    The update is the Lindley recursion ``Q <- max(Q + A - b, 0)`` with
    arrivals counted *before* service.  Eq. (15) writes the service first
    (``max(Q - b, 0) + A``); the two differ only in whether a user that
    becomes ready and is scheduled within the same slot transits through the
    backlog.  The paper already approximates service timing (footnote 2), and
    counting same-slot service keeps ``Q(t)`` equal to the number of users
    actually *waiting* — which is what Fig. 4(b) plots (immediate scheduling
    keeps the queue near zero).
    """

    def __init__(self, initial: float = 0.0) -> None:
        self.track_history = True
        self._reset_series(initial)

    def update(self, arrivals: float, services: float) -> float:
        """Apply the queue recursion ``Q <- max(Q + A - b, 0)``.

        Args:
            arrivals: ``A(t)`` — users that became ready this slot.
            services: ``b(t)`` — users scheduled this slot.
        """
        if arrivals < 0 or services < 0:
            raise ValueError("arrivals and services must be non-negative")
        self._length = max(self._length + arrivals - services, 0.0)
        self._record(self._length)
        return self._length

    def advance_idle(self, slots: int) -> float:
        """Apply ``slots`` consecutive no-traffic updates at once.

        With no arrivals and no service, ``max(Q + 0 - 0, 0)`` returns ``Q``
        unchanged (bitwise: adding and subtracting exact zeros is the
        identity and ``Q >= 0`` always holds), so ``slots`` calls of
        ``update(0, 0)`` append the current backlog ``slots`` times.  Used by
        the fast-forward engine to backfill quiet slots in O(slots) appends
        without the per-call arithmetic.
        """
        if slots < 0:
            raise ValueError("slots must be non-negative")
        self._record_repeat(self._length, slots)
        return self._length

    def reset(self, initial: float = 0.0) -> None:
        """Reset to ``initial`` and clear the history and aggregates."""
        self._reset_series(initial)


class VirtualQueue(_BacklogSeries):
    """The virtual staleness queue ``H(t)`` of Eq. (16).

    Args:
        staleness_bound: ``Lb``, the per-slot gradient-gap budget that acts
            as the virtual queue's service rate.
    """

    def __init__(self, staleness_bound: float, initial: float = 0.0) -> None:
        if staleness_bound <= 0:
            raise ValueError("staleness_bound must be positive")
        self.track_history = True
        self.staleness_bound = float(staleness_bound)
        self._reset_series(initial)

    def update(self, gap_sum: float) -> float:
        """Apply Eq. (16): ``H <- max(H + G(t) - Lb, 0)``."""
        if gap_sum < 0:
            raise ValueError("gap_sum must be non-negative")
        self._length = max(self._length + gap_sum - self.staleness_bound, 0.0)
        self._record(self._length)
        return self._length

    def advance_constant(self, gap_sum: float, slots: int) -> List[float]:
        """Apply ``slots`` Eq. (16) updates with a constant gap sum at once.

        The recursion ``H <- max(H + G - Lb, 0)`` with constant ``G`` is
        iterated exactly — each step repeats :meth:`update`'s arithmetic —
        but the loop short-circuits at the floating-point fixpoint (once an
        iteration leaves ``H`` unchanged, every further iteration does too,
        e.g. ``H = 0`` whenever ``G <= Lb``) and backfills the remaining
        history entries with that constant.  Used by the fast-forward engine
        to advance the virtual queue over quiet slots.

        Returns:
            The ``slots`` appended backlog values, in slot order.
        """
        if gap_sum < 0:
            raise ValueError("gap_sum must be non-negative")
        if slots < 0:
            raise ValueError("slots must be non-negative")
        values: List[float] = []
        length = self._length
        bound = self.staleness_bound
        for done in range(slots):
            new_length = max(length + gap_sum - bound, 0.0)
            if new_length == length:
                values.extend([new_length] * (slots - done))
                length = new_length
                break
            length = new_length
            values.append(length)
        self._length = length
        self._record_sequence(values)
        return values

    def advance_sequence(self, gap_sums: Sequence[float]) -> List[float]:
        """:meth:`update` once per entry of ``gap_sums``, in order; returns
        the appended backlogs.  The fast-forward engine's form for slots in
        which ready users are kept idle (``G(t)`` grows every slot)."""
        length = self._length
        bound = self.staleness_bound
        values: List[float] = []
        for gap_sum in gap_sums:
            if gap_sum < 0:
                raise ValueError("gap_sum must be non-negative")
            length = max(length + gap_sum - bound, 0.0)
            values.append(length)
        self._length = length
        self._record_sequence(values)
        return values

    def reset(self, initial: float = 0.0) -> None:
        """Reset to ``initial`` and clear the history and aggregates."""
        self._reset_series(initial)


@dataclass
class LyapunovAnalyzer:
    """Lyapunov function, drift and the Lemma 2 constant ``B``.

    Attributes:
        staleness_bound: ``Lb``.
        max_arrival: ``A_max`` — the largest possible per-slot arrival
            (bounded by the number of users).
        max_service: ``b_max`` — the largest possible per-slot service
            (also bounded by the number of users).
        max_gap: ``G_max`` — the largest possible per-slot gap sum.
    """

    staleness_bound: float
    max_arrival: float
    max_service: float
    max_gap: float

    def __post_init__(self) -> None:
        if min(self.staleness_bound, self.max_arrival, self.max_service, self.max_gap) < 0:
            raise ValueError("all bounds must be non-negative")

    @staticmethod
    def lyapunov(q_length: float, h_length: float) -> float:
        """``L(Theta) = (Q^2 + H^2) / 2`` (Eq. 17)."""
        return 0.5 * (q_length**2 + h_length**2)

    @classmethod
    def drift(cls, q_before: float, h_before: float, q_after: float, h_after: float) -> float:
        """One-slot Lyapunov drift ``L(Theta(t+1)) - L(Theta(t))`` (Eq. 18)."""
        return cls.lyapunov(q_after, h_after) - cls.lyapunov(q_before, h_before)

    def bound_constant(self) -> float:
        """The constant ``B = (A_max^2 + b_max^2 + G_max^2 + Lb^2) / 2`` of Lemma 2."""
        return 0.5 * (
            self.max_arrival**2
            + self.max_service**2
            + self.max_gap**2
            + self.staleness_bound**2
        )

    def drift_plus_penalty_bound(
        self,
        v: float,
        expected_power: float,
        q_length: float,
        h_length: float,
        expected_arrival: float,
        expected_service: float,
        expected_gap: float,
    ) -> float:
        """Right-hand side of the Lemma 2 bound (Eq. 20).

        ``B + V*E[P] + Q*(E[A] - E[b]) + H*(E[G] - Lb)``
        """
        if v < 0:
            raise ValueError("v must be non-negative")
        return (
            self.bound_constant()
            + v * expected_power
            + q_length * (expected_arrival - expected_service)
            + h_length * (expected_gap - self.staleness_bound)
        )

"""Per-slot traces recorded during a simulation run.

The Fig. 4/5/6 experiments need several time series from a run: cumulative
system energy, the task and virtual queue backlogs, the per-slot gradient-gap
sum, per-user gap traces, the lag/gap of every applied update, and the
accuracy-versus-time curve.  :class:`SimulationTrace` collects all of them;
series that would be too dense are sampled every ``trace_interval_slots``.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.columns import ColumnLog
from repro.fl.server import ServerUpdate, new_update_log

__all__ = ["TRACE_LEVELS", "SlotSample", "SimulationTrace"]

#: Telemetry volume knobs, from most to least detailed:
#:
#: * ``full``    — every series (the default; unchanged behaviour).
#: * ``summary`` — streamed aggregates only: decision counters and applied
#:   updates are kept, but the per-slot ``SlotSample`` series and the
#:   per-user gap traces (the two structures that grow as O(users x slots))
#:   are not materialised.  A megafleet run's telemetry stays O(updates).
#: * ``off``     — additionally drops the per-update samples; only scalar
#:   counters survive.
TRACE_LEVELS = ("full", "summary", "off")


@dataclass(frozen=True)
class SlotSample:
    """One sampled point of the per-slot system series."""

    slot: int
    time_s: float
    cumulative_energy_j: float
    queue_length: float
    virtual_queue_length: float
    gap_sum: float
    num_training: int
    num_ready: int


class SimulationTrace:
    """Collects every time series the evaluation figures need.

    Args:
        trace_interval_slots: sampling grid of the per-slot series.
        level: telemetry volume (:data:`TRACE_LEVELS`).
        updates: the applied-update log to expose as :attr:`update_samples`.
            An engine hands in its parameter server's
            (:attr:`~repro.fl.server.ParameterServer.updates`, which the
            server writes), so the rows exist once; a stand-alone trace
            keeps its own and fills it through :meth:`record_update`.
    """

    def __init__(
        self,
        trace_interval_slots: int = 10,
        level: str = "full",
        updates: Optional[ColumnLog] = None,
    ) -> None:
        if trace_interval_slots <= 0:
            raise ValueError("trace_interval_slots must be positive")
        if level not in TRACE_LEVELS:
            raise ValueError(f"unknown trace level {level!r}; choose from {TRACE_LEVELS}")
        self.trace_interval_slots = trace_interval_slots
        self.level = level
        self.slot_samples: List[SlotSample] = []
        self._owns_updates = updates is None
        self.updates = new_update_log() if updates is None else updates
        self.per_user_gaps: Dict[int, List[Tuple[float, float]]] = {}
        self._gap_lists: Optional[List[List[Tuple[float, float]]]] = None
        self.decisions: Dict[str, int] = {"schedule": 0, "idle": 0}
        self.corun_jobs = 0
        self.background_jobs = 0

    # -- recording -----------------------------------------------------------------

    def maybe_record_slot(self, sample: SlotSample) -> None:
        """Record a slot sample if it falls on the sampling grid."""
        if self.level != "full":
            return
        if sample.slot % self.trace_interval_slots == 0:
            self.slot_samples.append(sample)

    def record_update(self, sample: ServerUpdate) -> None:
        """Record one applied update (stand-alone traces only)."""
        if not self._owns_updates:
            raise RuntimeError(
                "this trace reads its parameter server's update log; "
                "the server records applied updates"
            )
        self.updates.append(astuple(sample))

    def record_user_gaps(self, time_s: float, gaps: Sequence[float]) -> None:
        """Record one gap-trace point for every user at once.

        ``gaps[i]`` is user ``i``'s current gap (one point of its Fig. 5d
        trace); used by the fleet backend on the sampling grid and by the
        fast-forward path to backfill the (constant) gap traces of skipped
        slots.  The per-user lists are bound once and cached, so a bulk
        record is one append per user.
        """
        if self.level != "full":
            return
        lists = self._gap_lists
        if lists is None or len(lists) != len(gaps):
            lists = self._gap_lists = [
                self.per_user_gaps.setdefault(user_id, [])
                for user_id in range(len(gaps))
            ]
        for user_list, gap in zip(lists, gaps):
            user_list.append((time_s, gap))

    # -- accessors -------------------------------------------------------------------

    @property
    def update_samples(self) -> List[ServerUpdate]:
        """Every applied update, in application order (none at level ``off``)."""
        if self.level == "off":
            return []
        return [ServerUpdate(*row) for row in self.updates.rows()]

    def _update_column(self, name: str) -> List:
        return [] if self.level == "off" else self.updates.column(name).tolist()

    def times(self) -> List[float]:
        """Sampled slot times in seconds."""
        return [s.time_s for s in self.slot_samples]

    def update_lags(self) -> List[int]:
        """Lag of every applied update (Fig. 5a lower panel)."""
        return self._update_column("lag")

    def update_gaps(self) -> List[float]:
        """Gradient gap of every applied update (Fig. 5a upper panel)."""
        return self._update_column("gradient_gap")

    def gap_variance_across_users(self) -> float:
        """Variance of the final per-user mean gaps (the Fig. 5d comparison)."""
        import numpy as np

        means = [
            float(np.mean([g for _, g in trace]))
            for trace in self.per_user_gaps.values()
            if trace
        ]
        if len(means) < 2:
            return 0.0
        return float(np.var(means))

    def schedule_fraction(self) -> float:
        """Fraction of decisions that scheduled training."""
        total = self.decisions["schedule"] + self.decisions["idle"]
        if total == 0:
            return 0.0
        return self.decisions["schedule"] / total

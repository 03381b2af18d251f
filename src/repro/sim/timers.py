"""Per-subsystem wall-clock instrumentation for the simulation engine.

Answers "where does a run actually spend its time?" — the question behind
every backend optimisation in this repo (the fleet backend attacks the slot
loop, fast-forward attacks quiet slots, the lean local round attacks the
training path).  One :class:`EngineTimers` instance rides along a single
engine run and buckets wall-clock into:

* ``training`` — the real NumPy local rounds;
* ``policy``  — building observations and evaluating scheduling decisions;
* ``eval``    — held-out evaluation of the global model;
* ``coupling`` — the slot's download block and upload block on the
  coordinator (server merge, realised gaps, transport log): two sections
  per slot;
* ``ipc_send`` — coordinator-side encode + doorbell write of shard
  requests (zero for single-process runs);
* ``ipc_recv`` — coordinator blocked on shard replies; this includes the
  remote compute (each worker's own training seconds are reported beside
  the shares as ``worker_training_s``, never added to them), so read it as
  "waiting on shards", not pure transport;
* ``merge``   — coordinator-side combination of shard outputs
  (observation-batch concatenation, tick folds, the final accountant
  merge);
* ``slot_loop`` (derived) — everything else: device advancement, energy
  accounting, queues, traces, fast-forward kernels.

Timers are disabled by default and cost nothing when off (``start`` /
``stop`` reduce to attribute checks); they never influence simulation
results.  ``repro-sim simulate/compare --profile`` prints the report and
:class:`~repro.analysis.runner.RunSummary` carries the shares for every
suite run.  The report also lists, per shard, how event-driven the fleet was
(``fleet_planes``: slot steps, retargets, slots each plane spent at rest) —
counts, not times, so "why is this fleet slow" has an answer without a
profiler.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

__all__ = ["EngineTimers"]


class EngineTimers:
    """Wall-clock shares of one simulation run, by subsystem.

    Args:
        enabled: when ``False`` (default) every method is a cheap no-op.
    """

    #: Buckets measured directly; ``slot_loop`` is derived as the remainder.
    CATEGORIES = ("training", "policy", "eval", "coupling", "ipc_send", "ipc_recv", "merge")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self.seconds: Dict[str, float] = {name: 0.0 for name in self.CATEGORIES}
        self.total_s = 0.0
        #: Training seconds each shard *worker process* measured itself, one
        #: entry per shard (in-process shards charge ``training`` directly).
        #: Already inside ``ipc_recv`` — the coordinator was blocked on that
        #: worker — so reported beside the buckets, never added to them.
        self.worker_training_s: List[float] = []
        #: BLAS threads in effect in this process (set where the thread
        #: policy is applied, :mod:`repro.fl.blas`; ``None``: no known BLAS
        #: library) and, per shard, in each worker process.
        self.blas_threads: Optional[int] = None
        self.worker_blas_threads: List[Optional[int]] = []
        #: Per shard, how event-driven its fleet was
        #: (:meth:`repro.sim.fleet.FleetState.plane_counters`): slot steps
        #: taken, per-user column rewrites, slots each plane spent at rest.
        self.fleet_planes: List[Dict[str, int]] = []

    def start(self) -> float:
        """Begin one timed section; returns the tick to pass to :meth:`stop`."""
        if not self.enabled:
            return 0.0
        return time.perf_counter()  # reprolint: allow(wall-clock): profiling measures real time by design

    def stop(self, category: str, tick: float) -> None:
        """Close a timed section opened by :meth:`start`."""
        if not self.enabled:
            return
        self.seconds[category] += time.perf_counter() - tick  # reprolint: allow(wall-clock): profiling only, never feeds sim state

    def stop_total(self, tick: float) -> None:
        """Close the whole-run section (bounds the derived remainder)."""
        if not self.enabled:
            return
        self.total_s += time.perf_counter() - tick  # reprolint: allow(wall-clock): profiling only, never feeds sim state

    # -- reporting ---------------------------------------------------------------

    def slot_loop_s(self) -> float:
        """Wall-clock not attributed to any measured category."""
        return max(0.0, self.total_s - sum(self.seconds.values()))

    def shares(self) -> Optional[Dict[str, float]]:
        """Fractional wall-clock share per subsystem (``None`` when disabled).

        Keys: the measured categories plus the derived ``slot_loop``
        remainder; values sum to 1 for any non-trivial run.
        """
        if not self.enabled or self.total_s <= 0.0:
            return None
        shares = {name: value / self.total_s for name, value in self.seconds.items()}
        shares["slot_loop"] = self.slot_loop_s() / self.total_s
        return shares

    def report(self) -> str:
        """A one-block plain-text profile for the CLI's ``--profile`` flag."""
        shares = self.shares()
        if shares is None:
            return "profile: timers disabled or nothing recorded"
        lines = [
            f"wall-clock profile ({self.total_s:.3f}s total, BLAS threads: {self.blas_threads})"
        ]
        values = dict(self.seconds, slot_loop=self.slot_loop_s())
        for name in (*self.CATEGORIES, "slot_loop"):
            lines.append(f"  {name:<10} {values[name]:8.3f}s  {100.0 * shares[name]:5.1f}%")
        for index, plane in enumerate(self.fleet_planes):
            lines.append(
                f"  shard {index} fleet plane: {plane['steps']} slot steps, "
                f"{plane['retargets']} retargets, at rest "
                f"{plane['thermal_rest_slots']} thermal / "
                f"{plane['battery_rest_slots']} battery slots"
            )
        for index, (seconds, threads) in enumerate(
            zip(self.worker_training_s, self.worker_blas_threads)
        ):
            lines.append(
                f"  shard {index} worker training {seconds:8.3f}s (in ipc_recv), BLAS threads: {threads}"
            )
        return "\n".join(lines)

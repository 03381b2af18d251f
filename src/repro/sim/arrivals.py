"""Application arrival processes.

The evaluation sets "the probability of application arrival to 0.001 in each
time slot, i.e., an average of 1 app arrival for every 1000 s", with the
application "chosen uniformly randomly from the 8 representative
applications" and running for the Table II co-running time measured on the
user's device.

Arrivals are generated ahead of the run for the full horizon:

* the engine replays them slot by slot (a user never has two overlapping
  apps — the process suppresses arrivals while an app is running), and
* the offline policy receives the same object as its look-ahead *oracle*
  (:meth:`ArrivalSchedule.next_arrival`), which is exactly the "all future
  occurrences of applications are known" assumption of Section IV.

Two processes are provided: the uniform Bernoulli process used in the paper
and a diurnal process (the Section VIII future-work pattern) in which the
arrival probability follows a day/night profile.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.device.apps import ForegroundApp, sample_app
from repro.device.models import DeviceSpec
from repro.energy.measurements import MeasurementTable

__all__ = [
    "BernoulliArrivalProcess",
    "DiurnalArrivalProcess",
    "TraceArrivalProcess",
    "ArrivalSchedule",
    "build_arrival_process",
]


class BernoulliArrivalProcess:
    """Constant per-slot arrival probability (the paper's process)."""

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.probability = probability

    def probability_at(self, slot: int, slot_seconds: float) -> float:
        """Arrival probability in ``slot`` (constant)."""
        return self.probability


class DiurnalArrivalProcess:
    """Day/night arrival probability (Section VIII future-work pattern).

    The probability follows a raised cosine over a 24-hour period: close to
    ``peak_probability`` in the middle of the day and close to
    ``trough_probability`` at night.

    Args:
        peak_probability: per-slot arrival probability at the daily peak.
        trough_probability: per-slot arrival probability at the nightly trough.
        period_s: length of one day in simulated seconds.
        phase_s: offset of the peak within the period.
    """

    def __init__(
        self,
        peak_probability: float = 0.002,
        trough_probability: float = 0.0001,
        period_s: float = 86_400.0,
        phase_s: float = 0.0,
    ) -> None:
        if not 0.0 <= trough_probability <= peak_probability <= 1.0:
            raise ValueError("need 0 <= trough <= peak <= 1")
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.peak_probability = peak_probability
        self.trough_probability = trough_probability
        self.period_s = period_s
        self.phase_s = phase_s

    def probability_at(self, slot: int, slot_seconds: float) -> float:
        """Arrival probability in ``slot`` following the diurnal profile."""
        time_s = slot * slot_seconds + self.phase_s
        phase = 2.0 * math.pi * (time_s % self.period_s) / self.period_s
        weight = 0.5 * (1.0 - math.cos(phase))  # 0 at midnight, 1 at midday
        return self.trough_probability + weight * (
            self.peak_probability - self.trough_probability
        )


class TraceArrivalProcess:
    """Replay application launches at explicit slots (usage-trace playback).

    The scenario subsystem uses this to drive a cohort from a recorded (or
    synthesized) launch pattern instead of a stochastic process: the process
    yields probability 1 exactly at the trace slots and 0 elsewhere, so the
    schedule generator launches at those slots deterministically (modulo the
    generator's busy-suppression — a launch that falls while the previous
    application is still running is skipped, exactly as a stochastic arrival
    would have been).

    The generator draws one uniform variate per non-busy slot regardless of
    the probability, so mixing trace-driven and stochastic users in one
    schedule keeps every user's RNG stream independent of the others'
    processes.

    Args:
        slots: launch slots of the trace (non-negative, deduplicated).
        period_slots: when set, the trace repeats with this period — slot
            ``s`` launches when ``s % period_slots`` is in the trace.
    """

    def __init__(self, slots: Sequence[int], period_slots: Optional[int] = None) -> None:
        if period_slots is not None and period_slots <= 0:
            raise ValueError("period_slots must be positive when set")
        cleaned = sorted({int(s) for s in slots})
        if cleaned and cleaned[0] < 0:
            raise ValueError("trace slots must be non-negative")
        if period_slots is not None and cleaned and cleaned[-1] >= period_slots:
            raise ValueError("trace slots must lie within one period")
        self.slots = cleaned
        self.period_slots = period_slots
        self._slot_set = frozenset(cleaned)

    def probability_at(self, slot: int, slot_seconds: float) -> float:
        """1.0 at (periodic) trace slots, 0.0 elsewhere."""
        if self.period_slots is not None:
            slot = slot % self.period_slots
        return 1.0 if slot in self._slot_set else 0.0


def build_arrival_process(spec: Dict):
    """Instantiate an arrival process from its declarative (JSON-able) form.

    The scenario compiler stores per-user arrival processes as plain dicts in
    :class:`~repro.sim.config.SimulationConfig.user_arrivals`; this factory
    is the single place that interprets them.  Supported kinds:

    * ``{"kind": "bernoulli", "probability": p}``
    * ``{"kind": "diurnal", "peak_probability": p, "trough_probability": q,
      "period_s": T, "phase_s": phi}`` (all but ``kind`` optional)
    * ``{"kind": "trace", "slots": [...], "period_slots": n}``
    """
    if not isinstance(spec, dict):
        raise TypeError(f"arrival spec must be a dict, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind == "bernoulli":
        return BernoulliArrivalProcess(float(spec.get("probability", 0.001)))
    if kind == "diurnal":
        return DiurnalArrivalProcess(
            peak_probability=float(spec.get("peak_probability", 0.002)),
            trough_probability=float(spec.get("trough_probability", 0.0001)),
            period_s=float(spec.get("period_s", 86_400.0)),
            phase_s=float(spec.get("phase_s", 0.0)),
        )
    if kind == "trace":
        period = spec.get("period_slots")
        return TraceArrivalProcess(
            spec.get("slots", ()),
            period_slots=None if period is None else int(period),
        )
    raise ValueError(
        f"unknown arrival kind {kind!r}; known: ['bernoulli', 'diurnal', 'trace']"
    )


#: Uniform variates drawn per vectorized scan step of the sparse generator.
_SPARSE_CHUNK = 2_048


def _process_probability_key(process) -> object:
    """Hashable identity of a process's probability profile, for caching.

    The scenario compiler materialises one process object per user even when
    a whole cohort shares identical parameters, so keying the per-slot
    probability vectors on the *parameters* (not the object) lets a 100k-user
    cohort share a single vector.  Unknown process types fall back to the
    object itself as key — identity semantics, but unlike ``id()`` the dict
    entry keeps the process alive, so the key can never be reused by a new
    object after garbage collection.
    """
    if isinstance(process, BernoulliArrivalProcess):
        return ("bernoulli", process.probability)
    if isinstance(process, DiurnalArrivalProcess):
        return (
            "diurnal",
            process.peak_probability,
            process.trough_probability,
            process.period_s,
            process.phase_s,
        )
    if isinstance(process, TraceArrivalProcess):
        return ("trace", tuple(process.slots), process.period_slots)
    return process


class ArrivalSchedule:
    """Pre-generated application arrivals for every user over the horizon."""

    def __init__(self, arrivals: Dict[int, List[ForegroundApp]]) -> None:
        self._arrivals = {user: sorted(apps, key=lambda a: a.arrival_slot) for user, apps in arrivals.items()}
        self._launch_slots: Optional[List[int]] = None

    # -- generation --------------------------------------------------------------

    @classmethod
    def generate(
        cls,
        num_users: int,
        total_slots: int,
        slot_seconds: float,
        process,
        device_specs: Sequence[DeviceSpec],
        rng: np.random.Generator,
        table: Optional[MeasurementTable] = None,
        app_names: Optional[Sequence[str]] = None,
        app_weights: Optional[Sequence[float]] = None,
    ) -> "ArrivalSchedule":
        """Generate arrivals for all users.

        A new application may only arrive while no application is running;
        its duration is the Table II co-running time measured for the user's
        device and the sampled application, converted to slots.

        ``process`` is either one arrival process shared by the whole fleet
        (the paper's setting) or a sequence of per-user processes (one per
        user, the scenario subsystem's heterogeneous fleets).  Either way
        the generator draws exactly one uniform variate per non-busy slot,
        so a user's arrival stream depends only on its own process.

        The draws are made by the sparse launch-event scan
        (:meth:`_generate_user_sparse`): chunks of the uniform stream are
        scanned vectorized and the generator state is rewound at each launch,
        so that exactly one draw per non-busy slot is consumed.  The schedule
        and the final generator state are **bitwise identical** to drawing
        one scalar uniform per non-busy slot — the reference
        ``tests/oracle.py::dense_arrival_schedule`` that
        ``tests/test_shard.py`` holds this to.
        """
        if len(device_specs) != num_users:
            raise ValueError("device_specs must have one entry per user")
        if isinstance(process, (list, tuple)):
            if len(process) != num_users:
                raise ValueError("per-user processes must have one entry per user")
            processes = list(process)
        else:
            processes = [process] * num_users
        table = table or MeasurementTable()
        probability_cache: Dict[object, np.ndarray] = {}
        return cls(
            {
                user: cls._generate_user_sparse(
                    processes[user],
                    probability_cache,
                    total_slots,
                    slot_seconds,
                    device_specs[user],
                    rng,
                    table,
                    app_names,
                    app_weights,
                )
                for user in range(num_users)
            }
        )

    @staticmethod
    def _generate_user_sparse(
        process,
        probability_cache: Dict[object, np.ndarray],
        total_slots: int,
        slot_seconds: float,
        device: DeviceSpec,
        rng: np.random.Generator,
        table: MeasurementTable,
        app_names: Optional[Sequence[str]],
        app_weights: Optional[Sequence[float]],
    ) -> List[ForegroundApp]:
        """One user's arrivals via the sparse launch-event scan.

        Consumes the *exact* draw sequence of the per-slot reference: one
        uniform per non-busy slot, then the ``sample_app`` draws at each
        launch.  Chunks of uniforms are drawn vectorized and scanned for the
        first hit (``u < p``, the complement of the reference's ``u >= p``
        skip); on a hit the generator state is rewound to the chunk start
        and exactly the consumed prefix is re-drawn, so the stream position
        after every launch matches the reference bit for bit.  The per-slot probability
        vector is evaluated through the process's own ``probability_at`` (no
        re-derivation) and cached across users with equal parameters.
        """
        key = _process_probability_key(process)
        probabilities = probability_cache.get(key)
        if probabilities is None:
            probabilities = np.array(
                [
                    process.probability_at(slot, slot_seconds)
                    for slot in range(total_slots)
                ],
                dtype=np.float64,
            )
            probability_cache[key] = probabilities
        apps: List[ForegroundApp] = []
        bit_generator = rng.bit_generator
        slot = 0
        while slot < total_slots:
            span = min(_SPARSE_CHUNK, total_slots - slot)
            state = bit_generator.state
            draws = rng.random(span)
            hits = np.nonzero(draws < probabilities[slot : slot + span])[0]
            if len(hits) == 0:
                slot += span
                continue
            first = int(hits[0])
            # Rewind: the per-slot reference consumes only the draws up to
            # (and including) the hit before the app-sampling draws.
            bit_generator.state = state
            rng.random(first + 1)
            spec = sample_app(rng, names=app_names, weights=app_weights)
            duration_s = table.corun_time(device.name, spec.name)
            duration_slots = max(1, int(round(duration_s / slot_seconds)))
            app = ForegroundApp(
                spec=spec, arrival_slot=slot + first, duration_slots=duration_slots
            )
            apps.append(app)
            slot = app.end_slot()  # the busy window draws nothing
        return apps

    # -- replay (engine) -----------------------------------------------------------

    def launch_slots(self) -> List[int]:
        """Sorted distinct slots at which at least one application launches.

        This is the event-iterator view of the schedule: between two
        consecutive launch slots (and absent expiries, completions and
        arrivals) nothing application-related happens, which is what lets the
        fast-forward engine advance whole stretches of slots at once.
        """
        if self._launch_slots is None:
            self._launch_slots = sorted(
                {app.arrival_slot for apps in self._arrivals.values() for app in apps}
            )
        return list(self._launch_slots)

    def arrivals_for(self, user_id: int) -> List[ForegroundApp]:
        """All arrivals of ``user_id`` in arrival order."""
        return list(self._arrivals.get(user_id, []))

    def slice_users(self, lo: int, hi: int) -> "ArrivalSchedule":
        """The sub-schedule of users ``[lo, hi)``, re-indexed to ``0..hi-lo-1``.

        The sharded fleet engine hands each worker exactly its shard's
        arrivals: per-user streams are already independent (one draw per
        non-busy slot), so slicing is a pure re-indexing.  Launch-slot event
        iterators on the slice only see the shard's own launches — segment
        boundaries elsewhere in the population never change a shard user's
        per-slot arithmetic, so the coarser event list stays bitwise-exact.
        """
        if not 0 <= lo < hi:
            raise ValueError("need 0 <= lo < hi")
        return ArrivalSchedule(
            {user - lo: list(self._arrivals.get(user, [])) for user in range(lo, hi)}
        )

    def total_arrivals(self) -> int:
        """Total number of application launches across all users."""
        return sum(len(apps) for apps in self._arrivals.values())

    # -- oracle (offline policy) ------------------------------------------------------

    def next_arrival(
        self, user_id: int, start_slot: int, end_slot: int
    ) -> Optional[Tuple[int, str]]:
        """First arrival of ``user_id`` within ``[start_slot, end_slot)``.

        Returns ``(arrival_slot, app_name)`` or ``None``.  This is the
        future knowledge the offline knapsack scheduler is allowed to use.
        """
        if end_slot <= start_slot:
            raise ValueError("end_slot must be greater than start_slot")
        for app in self._arrivals.get(user_id, []):
            if app.arrival_slot >= end_slot:
                break
            if app.arrival_slot >= start_slot:
                return app.arrival_slot, app.name
        return None

    def arrival_rate(self, total_slots: int, num_users: int) -> float:
        """Empirical per-user, per-slot arrival rate of the schedule."""
        if total_slots <= 0 or num_users <= 0:
            raise ValueError("total_slots and num_users must be positive")
        return self.total_arrivals() / (total_slots * num_users)

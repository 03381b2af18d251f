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
import operator
from bisect import bisect_left, bisect_right
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.device.apps import ForegroundApp, app_pool
from repro.device.models import DeviceSpec
from repro.energy.measurements import MeasurementTable

__all__ = [
    "BernoulliArrivalProcess",
    "DiurnalArrivalProcess",
    "TraceArrivalProcess",
    "ArrivalSchedule",
    "build_arrival_process",
    "build_arrival_processes",
    "specs_key",
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
        # A NaN or infinite period or phase makes every slot's probability
        # NaN: the cohort would never launch an app, without a word.
        if not (math.isfinite(period_s) and period_s > 0):
            raise ValueError("period_s must be finite and positive")
        if not math.isfinite(phase_s):
            raise ValueError("phase_s must be finite")
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
        slots: launch slots of the trace (non-negative integers,
            deduplicated).
        period_slots: when set, the trace repeats with this period — slot
            ``s`` launches when ``s % period_slots`` is in the trace.
    """

    def __init__(self, slots: Sequence[int], period_slots: Optional[int] = None) -> None:
        if period_slots is not None and period_slots <= 0:
            raise ValueError("period_slots must be positive when set")
        try:
            cleaned = sorted({operator.index(s) for s in slots})
        except TypeError:
            raise ValueError(f"trace slots must be integers, got {list(slots)!r}") from None
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


def _canonical_spec(value) -> Hashable:
    """A hashable form of a JSON-like spec: equal specs, equal keys.

    Dict entries are unordered and leaves keep their type, so ``1`` and
    ``1.0`` (an integer trace slot and a refused one) never share a key.
    """
    if isinstance(value, dict):
        return frozenset((key, _canonical_spec(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_spec(item) for item in value)
    return type(value), value


def specs_key(specs: Sequence[Dict]) -> Tuple[Hashable, ...]:
    """A hashable form of per-user ``specs``, one entry per user; a run of
    users holding the same spec object is canonicalised once."""
    keys: List[Hashable] = []
    previous = key = None
    for spec in specs:
        if spec is not previous or key is None:
            previous, key = spec, _canonical_spec(spec)
        keys.append(key)
    return tuple(keys)


def build_arrival_processes(specs: Sequence[Dict]) -> list:
    """Each user's process for the per-user ``specs``, one object per distinct spec.

    A cohort's users share one spec, so a million-user fleet builds as many
    processes as it has distinct specs.  A run of users holding the same
    spec object is looked up once.  An invalid spec is refused naming the
    first user that holds it.
    """
    built: Dict[Hashable, object] = {}
    processes = []
    previous = process = None
    for user, spec in enumerate(specs):
        if spec is not previous or process is None:
            previous = spec
            try:
                key = _canonical_spec(spec)
                process = built.get(key)
                if process is None:
                    process = built[key] = build_arrival_process(spec)
            except (TypeError, ValueError) as error:
                raise ValueError(f"user_arrivals[{user}] is invalid: {error}") from None
        processes.append(process)
    return processes


def _process_probability_key(process) -> object:
    """Hashable identity of a process's probability profile, for caching.

    Keying the per-slot probability vectors on the *parameters* (not the
    object) lets distinct process objects with equal parameters share one
    vector.  Unknown process types fall back to the object itself as key —
    identity semantics, but unlike ``id()`` the dict entry keeps the
    process alive, so the key can never be reused by a new object after
    garbage collection.
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


def _probability_vector(process, total_slots: int, slot_seconds: float) -> np.ndarray:
    """``process.probability_at`` over the horizon (closed forms where exact)."""
    if isinstance(process, BernoulliArrivalProcess):
        return np.full(total_slots, float(process.probability))
    if isinstance(process, TraceArrivalProcess):
        vector = np.zeros(total_slots)
        period = process.period_slots or total_slots
        for start in range(0, total_slots, period):
            slots = [start + s for s in process.slots if start + s < total_slots]
            vector[slots] = 1.0
        return vector
    vector = np.array(
        [process.probability_at(slot, slot_seconds) for slot in range(total_slots)],
        dtype=np.float64,
    )
    if np.isnan(vector).any():
        raise ValueError("arrival probabilities must not be NaN")
    return vector


def _profiles(processes: list, total_slots: int, slot_seconds: float):
    """One probability vector per distinct profile, and each user's index into them."""
    distinct = list(dict.fromkeys(processes))  # identity hash: a cohort's shared object once
    vectors: List[np.ndarray] = []
    of_key: Dict[object, int] = {}
    remap = []
    for process in distinct:
        key = _process_probability_key(process)
        if key not in of_key:
            of_key[key] = len(vectors)
            vectors.append(_probability_vector(process, total_slots, slot_seconds))
        remap.append(of_key[key])
    position = {process: i for i, process in enumerate(distinct)}
    user_index = np.fromiter(
        map(position.__getitem__, processes), dtype=np.intp, count=len(processes)
    )
    return vectors, np.asarray(remap, dtype=np.intp)[user_index]


#: Raw 64-bit words read from the stream per chunk (512 KiB): the pass's
#: memory does not grow with users x slots.
_CHUNK_WORDS = 1 << 16
#: ``Generator.random`` is ``(word >> 11) * 2**-53``.
_DOUBLE_UNIT = 2.0 ** -53
_LOW_HALF = 0xFFFF_FFFF


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
        the schedule is the one drawn user after user, slot after slot: one
        ``rng.random()`` per non-busy slot (a launch when it is below the
        slot's probability) and one application draw per launch.

        It is drawn in one pass over the raw words of ``rng``'s PCG64
        stream (:func:`_walk_launches`), never rewound; the schedule and
        the final generator state are **bitwise identical** to those scalar
        draws, the reference ``tests/oracle.py::dense_arrival_schedule``
        that ``tests/test_arrivals.py`` holds this to.
        """
        if len(device_specs) != num_users:
            raise ValueError("device_specs must have one entry per user")
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise TypeError(
                "arrival generation reads the PCG64 word stream; got a "
                f"{type(rng.bit_generator).__name__} generator"
            )
        if isinstance(process, (list, tuple)):
            if len(process) != num_users:
                raise ValueError("per-user processes must have one entry per user")
            processes = list(process)
        else:
            processes = [process] * num_users
        vectors, user_profile = _profiles(processes, total_slots, slot_seconds)
        pool, weights = app_pool(app_names, app_weights)  # refused before any draw
        table = table or MeasurementTable()
        durations: Dict[Tuple[str, int], int] = {}

        def duration(user: int, app: int) -> int:
            key = (device_specs[user].name, app)
            if key not in durations:
                duration_s = table.corun_time(key[0], pool[app].name)
                durations[key] = max(1, int(round(duration_s / slot_seconds)))
            return durations[key]

        arrivals: Dict[int, List[ForegroundApp]] = {user: [] for user in range(num_users)}
        for user, slot, app, slots in _walk_launches(
            rng.bit_generator, total_slots, vectors, user_profile, len(pool), weights, duration
        ):
            arrivals[user].append(ForegroundApp(spec=pool[app], arrival_slot=slot, duration_slots=slots))
        schedule = cls({})
        schedule._arrivals = arrivals  # the walk yields each user's launches in slot order
        return schedule

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


def _walk_launches(bit_generator, total_slots, vectors, user_profile, app_count, weights, duration):
    """Yield ``(user, slot, app, duration_slots)`` for every launch, in stream order.

    The scalar draws this reproduces give user after user, slot after slot,
    one word per non-busy slot (``random()``), then the launch's app draw.
    Between two launches that map is affine: word ``base + user * T + slot``
    is the draw of ``(user, slot)``.  A launch moves ``base`` by the words
    its app draw takes minus the busy slots it skips, so the walker only
    visits words that can launch:

    * candidates — words below ``ceil(p_max * 2**53) << 11`` (``p_max`` the
      largest probability under 1), one integer compare per word, each
      checked exactly against the probability of the slot it maps to;
    * certain launches — slots with probability >= 1, looked up directly.

    The app draw is read off the same words: ``integers(0, n)`` takes one
    32-bit half through PCG64's ``has_uint32`` / ``uinteger`` buffer with
    Lemire's rejection threshold, a weighted pick one double through the
    normalised cdf (``Generator.choice``).  At the end the generator is set
    to its start state advanced by the words consumed, with the buffered
    half restored.
    """
    num_users = len(user_profile)
    span = num_users * total_slots
    start_state = bit_generator.state
    has_half = bool(start_state["has_uint32"])
    half = int(start_state["uinteger"])
    threshold = (1 << 32) % app_count
    cdf = None
    if weights is not None:
        cumulative = np.asarray(weights, dtype=np.float64).cumsum()
        cumulative /= cumulative[-1]
        cdf = cumulative.tolist()

    chances = [vector[vector < 1.0] for vector in vectors]
    p_max = max((float(c.max()) for c in chances if c.size), default=0.0)
    limit = np.uint64(math.ceil(p_max * 2.0**53) << 11) if p_max > 0 else None
    probabilities = [vector.tolist() for vector in vectors]
    certain = [np.flatnonzero(vector >= 1.0).tolist() for vector in vectors]
    certain_users = np.flatnonzero(
        np.array([bool(slots) for slots in certain])[user_profile]
    )
    has_certain = bool(len(certain_users))

    chunk = np.empty(0, dtype=np.uint64)
    chunk_start = 0  # stream index of chunk[0]
    read = 0  # words drawn from the generator so far
    candidates: List[int] = []
    next_candidate = 0

    def load(at: int) -> None:
        """Make ``chunk`` the words from stream index ``at`` on."""
        nonlocal chunk, chunk_start, read, candidates, next_candidate
        if at > read:
            bit_generator.advance(at - read)  # words no slot or app draw needs
        chunk, chunk_start = bit_generator.random_raw(_CHUNK_WORDS), at
        read = at + _CHUNK_WORDS
        candidates = [] if limit is None else (np.flatnonzero(chunk < limit) + at).tolist()
        next_candidate = 0

    def word(index: int) -> int:
        if index >= chunk_start + len(chunk):
            load(index)
        return int(chunk[index - chunk_start])

    def certain_after(position: int) -> int:
        """Stream index of the first certain launch at or after ``position``."""
        if not has_certain:
            return end
        user, slot = divmod(position - base, total_slots)
        if user >= num_users:
            return end
        slots = certain[user_profile[user]]
        at = bisect_left(slots, slot)
        if at < len(slots):
            return base + user * total_slots + slots[at]
        later = int(np.searchsorted(certain_users, user, side="right"))
        if later == len(certain_users):
            return end
        user = int(certain_users[later])
        return base + user * total_slots + certain[user_profile[user]][0]

    base = 0  # word base + user * T + slot is (user, slot)'s draw until the next launch
    end = span  # words the whole schedule consumes, as far as the walk knows
    cursor = 0  # first word not yet walked past
    forced = certain_after(0)
    while True:
        stop = min(forced, end)
        candidate = None
        while limit is not None:
            while next_candidate < len(candidates) and candidates[next_candidate] < cursor:
                next_candidate += 1
            if next_candidate < len(candidates):
                candidate = candidates[next_candidate]
                break
            if chunk_start + len(chunk) >= stop:
                break
            load(chunk_start + len(chunk))
        if candidate is not None and candidate < stop:
            next_candidate += 1
            user, slot = divmod(candidate - base, total_slots)
            draw = (int(chunk[candidate - chunk_start]) >> 11) * _DOUBLE_UNIT
            if not draw < probabilities[user_profile[user]][slot]:
                continue
            launch = candidate
        elif forced < end:
            launch = forced
            user, slot = divmod(launch - base, total_slots)
        else:
            break
        cursor = launch + 1
        if cdf is not None:
            app = bisect_right(cdf, (word(cursor) >> 11) * _DOUBLE_UNIT)
            cursor += 1
        elif app_count == 1:
            app = 0  # integers(0, 1) draws nothing
        else:
            while True:
                if has_half:
                    bits, has_half = half, False
                else:
                    raw = word(cursor)
                    cursor += 1
                    bits, half, has_half = raw & _LOW_HALF, raw >> 32, True
                scaled = bits * app_count
                if scaled & _LOW_HALF >= threshold:
                    break
            app = scaled >> 32
        slots = duration(user, app)
        yield user, slot, app, slots
        base += cursor - launch - min(slots, total_slots - slot)
        end = base + span
        forced = certain_after(cursor)

    bit_generator.state = start_state
    bit_generator.advance(end)
    state = bit_generator.state
    state["has_uint32"], state["uinteger"] = int(has_half), half
    bit_generator.state = state

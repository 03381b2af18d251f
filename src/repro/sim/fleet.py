"""Vectorized struct-of-arrays fleet backend for the simulation engine.

The paper's evaluation (Section VII.B) simulates 25 users, and the original
engine mirrors that scale: :meth:`repro.sim.engine.SimulationEngine.run`
iterates pure-Python ``for`` loops over every user in every slot, so the
wall-clock cost of a run is O(slots x users) *interpreter* time.  This
module makes fleet size a NumPy axis instead:

* :class:`FleetState` holds the per-user simulation state as parallel
  ``float64`` / ``int64`` / ``bool`` arrays — ready flags, waiting slots,
  base model versions, foreground-application status, battery state of
  charge — plus the static per-device calibration (the four Table II/III
  power levels, training durations, thermal constants).
* Next to those *primary* arrays it keeps a **fleet plane** of derived
  per-user columns — the Eq. (10) activity-state code, the slot energy
  routed to the accumulator of that state, the thermal RC target, the
  training progress per slot, the battery draw and trickle charge.  A
  device sits in one activity state for hundreds of slots, so the columns
  are written only where a user's state changes (app launch and expiry,
  training start and finish, checkpoint restore, quiet-region rollback),
  through one rule, :meth:`FleetState._retarget`.
* One slot step over those columns (:meth:`FleetState._step`: thermal
  update, progress decrement, energy accumulation, battery cycle — a fixed
  sequence of whole-array calls) replaces a loop of per-user device steps
  (``MobileDevice.step`` of the reference loop, ``tests/reference_loop.py``).
  :meth:`FleetState.advance` is that step plus the Table III decision
  overhead and finish detection; :meth:`FleetState.advance_quiet`, the
  event-horizon fast-forward, is a loop of the same step that runs the
  application churn only on the slots that have any.
* :class:`FleetEnergyAccountant` accumulates the Eq. (10) energy breakdown
  in per-user arrays.

**Bitwise equivalence.**  The backend is held to a strict contract: with
the same configuration and seed, the vectorized engine produces *bitwise
identical* decisions, energy traces and gap traces to the per-user loop
engine (``tests/test_fleet.py`` enforces this).  Four implementation rules
make that possible:

1. every array expression uses the same per-element operation order as the
   scalar code it replaces (IEEE-754 ``float64`` arithmetic is then
   identical);
2. reductions that the loop engine performs with Python's left-to-right
   ``sum`` (system energy, the per-slot gap sum ``G(t)``) are computed by
   summing ``ndarray.tolist()`` left-to-right rather than with NumPy's
   pairwise ``np.sum``;
3. ``beta**lag`` is evaluated with scalar Python exponentiation per unique
   lag (see :func:`repro.core.staleness.momentum_lag_factor_batch`), never
   ``np.power``;
4. an update the scalar model applies to *some* users (the ones in a state,
   with a battery, on a charger) is applied to *all* of them with the
   neutral element in the column of everyone else — ``x + 0.0``,
   ``x - 0.0`` and ``x + min(0.0, capacity - charge)`` return ``x`` bit for
   bit (``docs/determinism.md``, "Neutral-element columns").

The loop engine touches every user's gap in ascending user order in slot 0
(all users are ready then), so its insertion-ordered dict reductions
coincide with ascending-user array reductions — rule 2 relies on this.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.columns import ordered_sum
from repro.device.apps import ForegroundApp
from repro.device.models import DeviceSpec
from repro.device.thermal import ThermalModel
from repro.energy.battery import Battery
from repro.energy.power_model import EnergyBreakdown, PowerModel
from repro.sim.arrivals import ArrivalSchedule
from repro.sim.config import SimulationConfig

__all__ = [
    "FleetEnergyAccountant",
    "FleetState",
    "MERGE_FANIN",
    "ReadyPayload",
    "SlotAdvance",
    "merge_slot_series",
]

#: Contention penalty for homogeneous (non-big.LITTLE) CPUs (Observation 2,
#: mirrored from :meth:`repro.device.thermal.ThermalModel.training_slowdown`).
_HOMOGENEOUS_CONTENTION = 1.10

#: The Eq. (10) activity-state code of a user is ``2 * training + app``:
#: 0 idle, 1 app only, 2 training only, 3 co-running — also the row of the
#: user's slot energy in the routing columns and its accumulator.
_IDLE, _APP_ONLY, _TRAINING_ONLY, _CORUN = range(4)

#: A plane that may be at rest is probed once in this many slot steps.  Only
#: a cadence: a probe *proves* rest (the step changed nothing), so any value
#: gives the same bits.
REST_PROBE_SLOTS = 32

#: "No such slot": past every horizon, for the next-launch / next-expiry cursors.
_NEVER = 1 << 62

_NO_USERS = np.empty(0, dtype=np.int64)

#: Fan-in of the hierarchical (shard-of-shards) accountant merge.  At or
#: below this width the merge is a single flat concatenation — exactly the
#: historical behavior for every current shard count.
MERGE_FANIN = 8


def merge_slot_series(series: Sequence[Sequence[float]]) -> Optional[np.ndarray]:
    """Pairwise tree reduction of per-shard cumulative slot-total series.

    Shards record the same slots, so the series are equal-length and the
    merged series is their element-wise sum.  The tree association is exact
    for the *shape* (element-wise sums commute with grouping up to float
    rounding) and this series is plot-only by contract — no headline number
    reads it — so re-association is acceptable; the same helper serves the
    accountant merge and checkpoint reslicing so both agree.  Returns
    ``None`` when no shard recorded any slots.
    """
    live = [np.asarray(entry, dtype=float) for entry in series if len(entry)]
    if not live:
        return None
    while len(live) > 1:
        live = [
            live[index] + live[index + 1] if index + 1 < len(live) else live[index]
            for index in range(0, len(live), 2)
        ]
    return live[0]


class FleetEnergyAccountant:
    """Array-backed energy accounting for the vectorized backend.

    Accumulates the Eq. (10) per-slot energies into one ``float64`` row
    per activity state (plus the Table III scheduler overhead) instead of
    one :class:`~repro.energy.power_model.EnergyBreakdown` object per user;
    :meth:`user_breakdown` builds one on demand.

    Reduction order matters for the bitwise-equivalence contract: the loop
    accountant computes ``total_j`` as a left-to-right Python ``sum`` of
    per-user totals in user order, so :meth:`total_j` does exactly that
    over ``tolist()`` values instead of calling ``np.sum``.

    The cumulative per-slot total series is maintained *incrementally*: every
    recorded slot contributes its left-to-right per-user energy sum to a
    running total (the loop accountant mirrors this).  The fleet caches that
    sum between activity transitions, so a slot in which nobody changed
    state extends the series with one float add.
    """

    #: The four activity-state accumulators, in state-code order.
    _STATE_KEYS = ("idle_j", "app_j", "training_j", "corunning_j")

    def __init__(self, num_users: int) -> None:
        if num_users <= 0:
            raise ValueError("num_users must be positive")
        self.num_users = num_users  # reprolint: static
        #: One accumulator row per Eq. (10) activity state, indexed by the
        #: state code — ``idle_j`` / ``app_j`` / ``training_j`` /
        #: ``corunning_j`` are its rows — so a slot is one add.
        self._state_j = np.zeros((4, num_users))
        self.overhead_j = np.zeros(num_users)
        self._per_slot_total: List[float] = []
        self._running_total_j = 0.0
        self._slot_energy_j = 0.0

    @property
    def idle_j(self) -> np.ndarray:
        return self._state_j[0]

    @property
    def app_j(self) -> np.ndarray:
        return self._state_j[1]

    @property
    def training_j(self) -> np.ndarray:
        return self._state_j[2]

    @property
    def corunning_j(self) -> np.ndarray:
        return self._state_j[3]

    # -- recording -----------------------------------------------------------------

    def add_slot(
        self,
        routed_j: np.ndarray,
        slot_energy_j: float,
        overhead_j: Optional[np.ndarray] = None,
    ) -> None:
        """Record one slot of fleet-wide energy, split by activity state.

        ``routed_j`` is the fleet's ``(4, users)`` energy-routing matrix: a
        user's Eq. (10) slot energy in the row of its own state and ``0.0``
        in the other three, so the masked per-state adds of the scalar
        model become one contiguous add (``x + 0.0 == x`` bit for bit; no
        accumulator can hold ``-0.0``).  ``slot_energy_j`` is the
        left-to-right per-user sum of the slot's energy, overhead included;
        :meth:`close_slot` folds it into the cumulative series.
        """
        self._state_j += routed_j
        if overhead_j is not None:
            self.overhead_j += overhead_j
        self._slot_energy_j = slot_energy_j

    def close_slot(self) -> None:
        """Snapshot the running system-wide total at the end of a slot."""
        self._running_total_j += self._slot_energy_j
        self._per_slot_total.append(self._running_total_j)
        self._slot_energy_j = 0.0

    # -- snapshot / merge (the shard layer's mutation-set contract) -------------------

    def quiet_state(self) -> tuple:
        """Copies of everything the quiet loop can mutate in this accountant.

        Owned here so the mutation set and the field layout live in one
        class: :meth:`FleetState.quiet_snapshot` (the two-phase quiet
        commit) delegates to it.  ``overhead_j`` moves in a region whose
        ready users are kept idle (their Table III decision overhead).
        """
        return (
            self._state_j.copy(),
            self.overhead_j.copy(),
            list(self._per_slot_total),
            self._running_total_j,
        )

    def restore_quiet_state(self, state: tuple) -> None:
        """Restore :meth:`quiet_state` (single-use: the arrays bind directly)."""
        self._state_j, self.overhead_j, per_slot_total, self._running_total_j = state
        self._per_slot_total = list(per_slot_total)

    # -- checkpointing -----------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Everything mutable in the accountant, as plain copies.

        The checkpoint subsystem (:mod:`repro.service.checkpoint`) persists
        this dict; :meth:`load_state_dict` restores it.  Checkpoints are
        only taken at slot boundaries, where ``_slot_energy_j`` has been
        folded into the series by :meth:`close_slot`, so it is not part of
        the state.
        """
        state: Dict[str, object] = {
            key: row.copy() for key, row in zip(self._STATE_KEYS, self._state_j)
        }
        state["overhead_j"] = self.overhead_j.copy()
        state["per_slot_total"] = list(self._per_slot_total)
        state["running_total_j"] = self._running_total_j
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore the state captured by :meth:`state_dict`."""
        self._state_j = np.stack(
            [np.asarray(state[key], dtype=float) for key in self._STATE_KEYS]
        )
        self.overhead_j = np.asarray(state["overhead_j"], dtype=float).copy()
        self._per_slot_total = list(state["per_slot_total"])
        self._running_total_j = float(state["running_total_j"])
        self._slot_energy_j = 0.0

    @classmethod
    def merged(cls, accountants: Sequence["FleetEnergyAccountant"]) -> "FleetEnergyAccountant":
        """Merge per-shard accountants into one population-wide accountant.

        The per-user arrays concatenate in shard (= ascending user) order,
        so :meth:`total_j` folds exactly the values a single-process
        accountant would — bitwise.  Above :data:`MERGE_FANIN` inputs the
        merge runs as a shard-of-shards tree: concatenation is associative,
        so grouping preserves the ascending-user order — and therefore every
        headline fold — bitwise for *any* shard count, while a wide
        coordinator pays O(log shards) merge levels instead of one giant
        serial pass.  The cumulative per-slot *series* is reconstituted as
        the element-wise sum of the shard series; summing shard subtotals
        re-associates the per-slot float fold, so that one series (a
        convenience for plots; no headline number reads it) may differ from
        a single-process run in the last ulp.
        """
        accountants = list(accountants)
        if len(accountants) > MERGE_FANIN:
            grouped = [
                cls.merged(accountants[index : index + MERGE_FANIN])
                for index in range(0, len(accountants), MERGE_FANIN)
            ]
            return cls.merged(grouped)
        merged = cls(sum(accountant.num_users for accountant in accountants))
        merged._state_j = np.concatenate([a._state_j for a in accountants], axis=1)
        merged.overhead_j = np.concatenate([a.overhead_j for a in accountants])
        stacked = merge_slot_series([a._per_slot_total for a in accountants])
        if stacked is not None:
            merged._per_slot_total = stacked.tolist()
            merged._running_total_j = float(stacked[-1])
        return merged

    # -- accessors ---------------------------------------------------------------------

    def user_breakdown(self, user_id: int) -> EnergyBreakdown:
        """Energy breakdown for one user."""
        idle_j, app_j, training_j, corunning_j = self._state_j[:, user_id].tolist()
        return EnergyBreakdown(
            idle_j=idle_j,
            app_j=app_j,
            training_j=training_j,
            corunning_j=corunning_j,
            overhead_j=float(self.overhead_j[user_id]),
        )

    def user_totals_j(self) -> np.ndarray:
        """Per-user total energy, in the loop accountant's operand order."""
        return self.idle_j + self.app_j + self.training_j + self.corunning_j + self.overhead_j

    def total_j(self) -> float:
        """System-wide total energy in joules (loop-accountant reduction order)."""
        return ordered_sum(self.user_totals_j())

    def total_kj(self) -> float:
        """System-wide total energy in kilojoules."""
        return self.total_j() / 1000.0

    def training_related_j(self) -> float:
        """Energy attributable to training (training-alone + co-running)."""
        return ordered_sum(self.training_j + self.corunning_j)

    def per_slot_totals(self) -> list:
        """Cumulative system energy at the end of each recorded slot."""
        return list(self._per_slot_total)


@dataclass
class ReadyPayload:
    """One shard's decision inputs for its ready pool in one slot.

    The shard-resident half of an
    :class:`~repro.core.policies.ObservationBatch`: everything a policy
    needs that lives in per-device state.  The two coupling-state columns —
    the server-supplied lag estimates and the Eq. (12) gradient gaps — are
    filled in by the coordinator (see
    :func:`repro.sim.shard.build_observation_batch`), because they are
    exactly the cross-shard state the paper routes through the server.

    ``users`` are *shard-local* ascending indices; the shard's user-id
    offset translates them to global ids at the protocol boundary.
    """

    users: np.ndarray
    app_running: np.ndarray
    power_corun_w: np.ndarray
    power_app_w: np.ndarray
    power_training_w: np.ndarray
    power_idle_w: np.ndarray
    momentum_norm: np.ndarray
    learning_rate: np.ndarray
    momentum_coeff: np.ndarray
    duration_slots: np.ndarray
    waiting_slots: np.ndarray

    def __len__(self) -> int:
        return len(self.users)

    def __reduce__(self):
        # Payloads cross the coordinator/shard boundary once per slot per
        # shard, so their pickle cost is protocol hot path.  Packing the
        # eleven columns, in field order, into one float64 matrix turns
        # eleven array reductions into one (and one large pickle-5 buffer
        # the shm plane can place out-of-band).  Every conversion is exact
        # (ids and counters are far below 2**53) and the restore side casts
        # back to the original dtypes, so the round trip is bitwise.
        columns = [getattr(self, column.name) for column in fields(self)]
        return (_restore_ready_payload, (np.stack(columns),))


def _restore_ready_payload(packed: np.ndarray) -> ReadyPayload:
    """Rebuild a :class:`ReadyPayload` from its packed pickle form."""
    users, app_running, *powers_and_momenta, duration_slots, waiting_slots = packed
    return ReadyPayload(
        users.astype(np.int64),
        app_running.astype(bool),
        *powers_and_momenta,
        duration_slots.astype(np.int32),
        waiting_slots.astype(np.int32),
    )


@dataclass
class SlotAdvance:
    """What happened fleet-wide during one vectorized slot advance.

    Attributes:
        finished_users: ascending user ids whose training job completed.
    """

    finished_users: np.ndarray


class FleetState:
    """Struct-of-arrays state of the whole device fleet.

    One instance replaces a per-user object graph of devices, batteries
    and gap trackers (the reference loop's) for a single simulation run.
    The engine orchestrates slots (arrivals, decisions, parameter server,
    traces); this class supplies the vectorized kernels:

    * :meth:`begin_slot_apps` — foreground-application expiry and launches
      (step 1 of the slot timeline in :mod:`repro.sim.engine`);
    * :meth:`ready_users` — the ready pool, including the Android
      JobScheduler battery-participation condition (Section III.B);
    * :meth:`ready_payload` — the shard-resident half of the Eq. (22)/(23)
      decision inputs (the coordinator adds the lag and gap coupling
      columns, which live server-side);
    * :meth:`advance` — device advancement with Eq. (10) energy
      accumulation, thermal dynamics and training progress (step 3);
    * :meth:`advance_quiet` — the same slot step, looped over a quiet
      region without the decision machinery around it.

    The Eq. (12) gap dynamics deliberately do **not** live here: the gap sum
    ``G(t)`` feeds the global virtual queue, so the per-user gap array is
    coordinator state (:class:`repro.sim.coupling.CouplingCore`), exchanged
    with shards only through observation batches.

    Args:
        config: the run configuration.
        device_specs: static device description per user.
        power_model: the Eq. (10) power function (Table II/III calibrated).
        batteries: per-user battery or ``None`` (dev boards, disabled).
        arrivals: the pre-generated application arrival schedule.
    """

    def __init__(
        self,
        config: SimulationConfig,
        device_specs: Sequence[DeviceSpec],
        power_model: PowerModel,
        batteries: Sequence[Optional[Battery]],
        arrivals: ArrivalSchedule,
    ) -> None:
        # The fleet covers len(device_specs) users — the whole population in
        # single-process runs, one contiguous shard slice under the sharded
        # engine.  Every internal index is local to this slice; the shard
        # layer owns the local <-> global translation.
        n = len(device_specs)
        if len(batteries) != n:
            raise ValueError("device_specs and batteries must be equal-length")
        self.config = config  # reprolint: static
        self.num_users = n  # reprolint: static
        self.slot_seconds = config.slot_seconds  # reprolint: static
        self.power_model = power_model  # reprolint: static

        # -- static per-device calibration ------------------------------------
        names = [spec.name for spec in device_specs]
        self.device_names = np.asarray(names, dtype=object)  # reprolint: static
        self.idle_w = np.array([power_model.idle_power(d) for d in names])  # reprolint: static
        self.training_w = np.array([power_model.training_power(d) for d in names])  # reprolint: static
        self.overhead_w = np.array([power_model.overhead_power(d) for d in names])  # reprolint: static
        self.mean_app_w = np.array([power_model.app_power(d) for d in names])  # reprolint: static
        self.mean_corun_w = np.array([power_model.corun_power(d) for d in names])  # reprolint: static
        self.duration_slots = np.array(
            [
                max(1, int(round(spec.training_time_s / config.slot_seconds)))
                for spec in device_specs
            ],
            dtype=np.int32,
        )  # reprolint: static (duration_slots: per-device calibration)
        self.heterogeneous = np.array(
            [spec.heterogeneous for spec in device_specs], dtype=bool
        )  # reprolint: static

        # -- thermal model (first-order RC, one instance read per device) -----
        thermals = [ThermalModel(spec) for spec in device_specs]
        self.ambient_c = np.array([t.ambient_c for t in thermals])  # reprolint: static
        self.thermal_alpha = np.array(
            [1.0 - math.exp(-config.slot_seconds / t.tau_s) for t in thermals]
        )  # reprolint: static
        self.degrees_per_watt = np.array([t.degrees_per_watt for t in thermals])  # reprolint: static
        self.throttle_temp_c = np.array([t.throttle_temp_c for t in thermals])  # reprolint: static
        self.throttle_slowdown = np.array([t.throttle_slowdown for t in thermals])  # reprolint: static
        self.temperature_c = self.ambient_c.copy()

        # -- FL-side observation inputs ---------------------------------------
        self.learning_rates = np.full(n, config.learning_rate)  # reprolint: static
        self.momentum_coeffs = np.full(n, config.momentum)  # reprolint: static
        #: ``||v_t||_2`` cache — a client's momentum vector only changes when
        #: it trains, so the engine refreshes the entry after `local_train`.
        self.momentum_norms = np.zeros(n)

        # -- dynamic scheduling / app / training state -------------------------
        # Slot/version counters are int32: both are bounded far below 2**31
        # (total_slots, server versions) and every consumer either compares
        # them to Python ints or converts to float64 — int32 -> float64 is
        # exact, so the compaction is bitwise-free and halves the per-user
        # footprint that matters at megafleet scale.
        self.ready = np.zeros(n, dtype=bool)
        self.waiting_slots = np.zeros(n, dtype=np.int32)
        self.base_version = np.zeros(n, dtype=np.int32)
        self.base_params: List[Optional[np.ndarray]] = [None] * n

        self.app_active = np.zeros(n, dtype=bool)
        self.app_end_slot = np.zeros(n, dtype=np.int32)
        self.app_power_w = self.mean_app_w.copy()
        self.corun_power_w = self.mean_corun_w.copy()
        self.app_slowdown = np.ones(n)
        self.app_names = np.array([None] * n, dtype=object)

        self.training_active = np.zeros(n, dtype=bool)
        self.remaining_slots = np.zeros(n)

        # Per-slot scratch, refilled by whoever uses it; no cross-slot state.
        self._scratch_delta = np.empty(n)  # reprolint: static (scratch, refilled per slot)
        self._scratch_added = np.empty(n)  # reprolint: static (scratch, refilled per slot)
        self._scratch_overhead_j = np.empty(n)  # reprolint: static (scratch, refilled per slot)
        self._scratch_decided_idle = np.empty(n, dtype=bool)  # reprolint: static (scratch, refilled per slot)

        # -- batteries ----------------------------------------------------------
        self.has_battery = np.array([b is not None for b in batteries], dtype=bool)  # reprolint: static
        self._any_battery = bool(self.has_battery.any())  # reprolint: static
        self.battery_capacity_j = np.array(
            [b.capacity_j if b is not None else 1.0 for b in batteries]
        )  # reprolint: static
        self.battery_charge_j = np.array(
            [b.charge_j if b is not None else 1.0 for b in batteries]
        )
        self.battery_rate_w = np.array(
            [b.charge_rate_w if b is not None else 0.0 for b in batteries]
        )  # reprolint: static
        self.battery_min_soc = np.array(
            [b.min_participation_soc if b is not None else 0.0 for b in batteries]
        )  # reprolint: static
        self.battery_cycle_j = np.zeros(n)
        #: What one plugged-in idle slot adds to a battery, and what one
        #: deciding-idle slot costs on top of idle (Table III); ``0.0`` where
        #: the user has no battery to charge.
        self._charge_step_j = np.where(
            self.has_battery & (self.battery_rate_w > 0),
            self.battery_rate_w * config.slot_seconds,
            0.0,
        )  # reprolint: static
        self._overhead_step_j = (self.overhead_w - self.idle_w) * config.slot_seconds  # reprolint: static

        # -- launch schedule and accounting ------------------------------------
        self._launches: Dict[int, List[Tuple[int, ForegroundApp]]] = {}  # reprolint: static (derived from the arrival schedule)
        for user in range(n):
            for app in arrivals.arrivals_for(user):
                self._launches.setdefault(app.arrival_slot, []).append((user, app))
        for slot_apps in self._launches.values():
            slot_apps.sort(key=lambda pair: pair[0])
        #: Event-iterator view of the schedule (sorted distinct launch slots):
        #: the quiet loop's cursor over the slots that need application churn.
        self._launch_slot_list: List[int] = arrivals.launch_slots()  # reprolint: static (derived from the arrival schedule)
        self.accountant = FleetEnergyAccountant(n)

        # -- the fleet plane: derived per-user columns --------------------------
        # A device sits in one Eq. (10) activity state for hundreds of slots,
        # so everything the slot step needs that depends only on that state
        # is a column written by _retarget() where a user's state changes —
        # never pickled, rebuilt from the primary arrays by _rebuild().  The
        # columns hold the *neutral element* for users an update does not
        # apply to (0.0 energy in the three rows of the states a user is not
        # in, 0.0 progress when not training alone, 0.0 draw without a
        # battery, 0.0 charge unless idle and plugged in), which turns every
        # masked update of the scalar model into a contiguous whole-array one
        # with the same bits (docs/determinism.md, "neutral-element columns").
        self._state = np.zeros(n, dtype=np.int8)  # reprolint: static (derived, rebuilt by _rebuild: 2*training + app)
        self._energy_j = np.empty(n)  # reprolint: static (derived, rebuilt by _rebuild)
        self._thermal_target_c = np.empty(n)  # reprolint: static (derived, rebuilt by _rebuild)
        self._energy_rows = np.zeros((4, n))  # reprolint: static (derived, rebuilt by _rebuild)
        self._progress = np.zeros(n)  # reprolint: static (derived, rebuilt by _rebuild)
        self._draw_j = np.zeros(n)  # reprolint: static (derived, rebuilt by _rebuild)
        self._charge_add_j = np.zeros(n)  # reprolint: static (derived, rebuilt by _rebuild)
        # The few co-running users, compressed: their throttle predicate is
        # the one thing the step has to evaluate per slot.
        self._corun_users = _NO_USERS  # reprolint: static (derived, rebuilt by _rebuild)
        self._corun_free = np.empty(0)  # reprolint: static (derived, rebuilt by _rebuild)
        self._corun_throttled = np.empty(0)  # reprolint: static (derived, rebuilt by _rebuild)
        self._corun_throttle_c = np.empty(0)  # reprolint: static (derived, rebuilt by _rebuild)
        self._corun_hot = np.empty(0, dtype=bool)  # reprolint: static (derived, rebuilt by _rebuild)
        self._corun_outruns_clock = False  # reprolint: static (derived, rebuilt by _rebuild)
        self._num_training = 0  # reprolint: static (derived, rebuilt by _rebuild)
        self._next_expiry = _NEVER  # reprolint: static (derived, rebuilt by _rebuild)
        self._started: List[int] = []  # reprolint: static (users whose start awaits the next advance; empty at slot boundaries)
        self._slot_energy_j: Optional[float] = None  # reprolint: static (cache, dropped by _retarget)
        self._thermal_rest = False  # reprolint: static (proved by a probe step, dropped by _retarget)
        self._battery_rest = False  # reprolint: static (proved by a probe step, dropped by _retarget)
        self._until_probe = REST_PROBE_SLOTS  # reprolint: static (probe cadence; any value is exact)
        # Observability only: never checkpointed, never read by the simulation.
        self.steps = 0  # reprolint: static (counter)
        self.retargets = 0  # reprolint: static (counter)
        self.thermal_rest_slots = 0  # reprolint: static (counter)
        self.battery_rest_slots = 0  # reprolint: static (counter)
        self._rebuild()

    # -- the retarget rule -----------------------------------------------------------

    def _retarget(self, users: Sequence[int]) -> None:
        """Rewrite every derived column of ``users`` from the primary arrays.

        The one place the activity state of a user turns into numbers.
        Called with the users an event touched — expired and launched apps
        (:meth:`begin_slot_apps`), started and finished jobs
        (:meth:`advance`).  Selection and arithmetic follow the scalar
        device runtime element for element: Eq. (10) picks one of four power
        levels, the slot energy is ``power * slot_seconds``, the RC target
        ``ambient + degrees_per_watt * power``, the Observation 2 slowdown
        ``app_slowdown`` (times 1.10 on a homogeneous CPU, times
        ``throttle_slowdown`` when hot).  ``users`` may repeat an id (an app
        that expires and relaunches in one slot): every write is idempotent.

        The rule is written twice, :meth:`_retarget_many` as array
        expressions over an index array and :meth:`_retarget_one` in scalars
        for the one or two users most events touch (a single launch, start
        or finish: ~5 us against ~30 us of array-call overhead);
        ``tests/test_fleet_plane.py`` holds the two bitwise equal.
        """
        self.retargets += len(users)
        if len(users) <= 2:
            for user in users:
                self._retarget_one(int(user))
        else:
            self._retarget_many(np.asarray(users, dtype=np.intp))
        self._wake()

    def _wake(self) -> None:
        """Some column changed: drop the slot-energy cache, end both rests."""
        self._slot_energy_j = None
        self._thermal_rest = False
        self._battery_rest = False

    def _retarget_many(self, users: np.ndarray) -> None:
        training = self.training_active[users].view(np.int8)
        state = training + training + self.app_active[users].view(np.int8)
        corun_changed = self._state[users].max() == _CORUN or state.max() == _CORUN
        power_w = np.choose(
            state,
            (
                self.idle_w[users],
                self.app_power_w[users],
                self.training_w[users],
                self.corun_power_w[users],
            ),
        )
        energy_j = power_w * self.slot_seconds
        self._state[users] = state
        self._energy_j[users] = energy_j
        self._thermal_target_c[users] = (
            self.ambient_c[users] + self.degrees_per_watt[users] * power_w
        )
        self._energy_rows[:, users] = 0.0
        self._energy_rows[state, users] = energy_j
        # A job alone on its device makes exactly one slot of progress per
        # slot; the entries of co-running ones come from the compressed set.
        self._progress[users] = state == _TRAINING_ONLY
        self._draw_j[users] = np.where(self.has_battery[users], energy_j, 0.0)
        self._charge_add_j[users] = np.where(state == _IDLE, self._charge_step_j[users], 0.0)
        if corun_changed:
            self._compress_corun()

    def _retarget_one(self, user: int) -> None:
        app = self.app_active[user]
        if self.training_active[user]:
            state = _CORUN if app else _TRAINING_ONLY
            power_w = self.corun_power_w[user] if app else self.training_w[user]
        else:
            state = _APP_ONLY if app else _IDLE
            power_w = self.app_power_w[user] if app else self.idle_w[user]
        corun_changed = state == _CORUN or self._state[user] == _CORUN
        energy_j = power_w * self.slot_seconds
        self._state[user] = state
        self._energy_j[user] = energy_j
        self._thermal_target_c[user] = (
            self.ambient_c[user] + self.degrees_per_watt[user] * power_w
        )
        self._energy_rows[:, user] = 0.0
        self._energy_rows[state, user] = energy_j
        self._progress[user] = state == _TRAINING_ONLY
        self._draw_j[user] = energy_j if self.has_battery[user] else 0.0
        self._charge_add_j[user] = self._charge_step_j[user] if state == _IDLE else 0.0
        if corun_changed:
            self._compress_corun()

    def _compress_corun(self) -> None:
        """Re-derive the co-running set and its progress rates."""
        corun = np.nonzero(self._state == _CORUN)[0]
        slowdown = self.app_slowdown[corun]
        slowdown = np.where(
            self.heterogeneous[corun], slowdown, slowdown * _HOMOGENEOUS_CONTENTION
        )
        self._corun_users = corun
        self._corun_free = 1.0 / slowdown
        self._corun_throttled = 1.0 / (slowdown * self.throttle_slowdown[corun])
        self._corun_throttle_c = self.throttle_temp_c[corun]
        self._set_corun_progress(self.temperature_c[corun] >= self._corun_throttle_c)
        # More than one slot of progress per slot breaks the completion
        # bound of quiet_horizon(); advance_quiet hands such slots back.
        self._corun_outruns_clock = bool(
            len(corun) and float(self.app_slowdown[corun].min()) < 1.0
        )

    def _set_corun_progress(self, hot: np.ndarray) -> None:
        """Progress per slot of the co-running users, throttled where ``hot``."""
        self._corun_hot = hot
        self._progress[self._corun_users] = np.where(
            hot, self._corun_throttled, self._corun_free
        )

    def _rebuild(self) -> None:
        """Derive every column, count and cursor from the primary arrays."""
        self._started.clear()
        self._num_training = int(self.training_active.sum())
        self._refresh_next_expiry()
        self._retarget_many(np.arange(self.num_users))
        self._wake()

    def _refresh_next_expiry(self) -> None:
        active = self.app_active
        self._next_expiry = int(self.app_end_slot[active].min()) if active.any() else _NEVER

    def _flush_started(self) -> None:
        """Retarget the users :meth:`start_training` queued, in one array call."""
        if self._started:
            self._retarget(self._started)
            self._started.clear()

    # -- step 1: foreground applications -----------------------------------------

    def begin_slot_apps(self, slot: int) -> None:
        """Expire finished foreground applications and launch new arrivals.

        Mirrors the loop engine exactly: expiry first (an app whose
        ``end_slot`` has passed leaves the foreground), then launches, so an
        arrival may reuse the slot its predecessor freed.  Idempotent per
        slot.  ``_next_expiry`` (the earliest ``end_slot`` of a running app)
        makes a slot without application events cost one comparison and one
        dictionary probe.
        """
        touched: List[int] = []
        if slot >= self._next_expiry:
            expired = np.nonzero(self.app_active & (slot >= self.app_end_slot))[0]
            self.app_active[expired] = False
            self.app_power_w[expired] = self.mean_app_w[expired]
            self.corun_power_w[expired] = self.mean_corun_w[expired]
            self.app_slowdown[expired] = 1.0
            self.app_names[expired] = None
            self._refresh_next_expiry()
            touched = expired.tolist()
        for user, app in self._launches.get(slot, ()):
            if self.app_active[user]:
                continue
            device = self.device_names[user]
            end_slot = app.end_slot()
            self.app_active[user] = True
            self.app_end_slot[user] = end_slot
            self.app_power_w[user] = self.power_model.app_power(device, app.name)
            self.corun_power_w[user] = self.power_model.corun_power(device, app.name)
            self.app_slowdown[user] = app.spec.training_slowdown
            self.app_names[user] = app.name
            if end_slot < self._next_expiry:
                self._next_expiry = end_slot
            touched.append(user)
        if touched:
            self._retarget(touched)

    # -- step 2: ready pool ---------------------------------------------------------

    def make_ready(self, user: int, version: int, params: np.ndarray) -> None:
        """The user downloads the current model and joins the ready pool."""
        self.ready[user] = True
        self.waiting_slots[user] = 0
        self.base_version[user] = version
        self.base_params[user] = params

    def battery_ok(self) -> np.ndarray:
        """The Android JobScheduler battery condition, per user (Section III.B)."""
        return ~self.has_battery | (
            self.battery_charge_j / self.battery_capacity_j >= self.battery_min_soc
        )

    def ready_users(self) -> np.ndarray:
        """Ascending user ids eligible for a decision this slot."""
        eligible = self.ready & ~self.training_active
        if self._any_battery:
            eligible &= self.battery_ok()
        return np.nonzero(eligible)[0]

    # -- decisions ---------------------------------------------------------------------

    def ready_payload(self, users: np.ndarray) -> ReadyPayload:
        """The shard-resident decision inputs for the ready pool ``users``.

        Everything in the Eq. (22)/(23) observation that lives in per-device
        state.  The coordinator completes it into an
        :class:`~repro.core.policies.ObservationBatch` by adding the two
        coupling columns — server lag estimates and Eq. (12) gaps
        (:func:`repro.sim.shard.build_observation_batch`).
        """
        return ReadyPayload(
            users=users,
            app_running=self.app_active[users],
            power_corun_w=self.corun_power_w[users],
            power_app_w=self.app_power_w[users],
            power_training_w=self.training_w[users],
            power_idle_w=self.idle_w[users],
            momentum_norm=self.momentum_norms[users],
            learning_rate=self.learning_rates[users],
            momentum_coeff=self.momentum_coeffs[users],
            duration_slots=self.duration_slots[users],
            waiting_slots=self.waiting_slots[users],
        )

    def start_training(self, users: np.ndarray) -> None:
        """Start a training job on each of ``users`` (the policy decided ``schedule``).

        Raises, with nothing changed, if one of them is already training.
        The users' derived columns are rewritten by the slot's
        :meth:`advance`, in one call.
        """
        if self.training_active[users].any():
            busy = users[self.training_active[users]].tolist()
            raise RuntimeError(f"users {busy}: training already in progress")
        self.training_active[users] = True
        self.remaining_slots[users] = self.duration_slots[users]
        self.ready[users] = False
        self._num_training += len(users)
        self._started.extend(users.tolist())

    # -- step 3: fleet-wide device advancement -------------------------------------------

    def _step(self, overhead_j: Optional[np.ndarray] = None) -> None:
        """One slot of device physics, fleet-wide (the per-user device step).

        Applies, in the per-element operation order of the scalar device
        runtime: the first-order thermal update, the Observation 2
        contention slowdown with thermal throttling, the training-progress
        decrement, the Eq. (10) energy accumulation (plus ``overhead_j``,
        the Table III decision overhead of this slot's idle deciders) and
        the battery discharge/charge cycle.  Every operand is a derived
        column, so the step is a fixed sequence of whole-array calls whatever
        the mix of activity states.

        A plane that is provably at rest is skipped: every
        :data:`REST_PROBE_SLOTS` slots the step checks whether it changed
        anything — a thermal update that returns ``temperature_c`` bit for
        bit, a battery cycle that draws and adds nothing — and with the
        columns unchanged the next step is the same function of the same
        state.  :meth:`_retarget` wakes both planes; overhead wakes the
        batteries (it is a draw no column holds).
        """
        self.steps += 1
        self._until_probe -= 1
        probe = self._until_probe <= 0
        if probe:
            self._until_probe = REST_PROBE_SLOTS

        # First-order thermal RC: T += (T_target - T) * (1 - exp(-dt/tau)).
        temperature_c = self.temperature_c
        if self._thermal_rest:
            self.thermal_rest_slots += 1
        else:
            delta = np.subtract(self._thermal_target_c, temperature_c, out=self._scratch_delta)
            delta *= self.thermal_alpha
            if probe:
                before = temperature_c.copy()
                temperature_c += delta
                self._thermal_rest = bool(np.array_equal(before, temperature_c))
            else:
                temperature_c += delta

        # Training progress; co-running jobs suffer contention (Observation 2)
        # and, when hot enough, thermal throttling: their entries of the
        # progress column are rewritten when the throttle predicate, read
        # against the just-updated temperature, changes for one of them.
        if self._num_training:
            corun = self._corun_users
            if len(corun) and not self._thermal_rest:
                hot = temperature_c[corun] >= self._corun_throttle_c
                if (hot != self._corun_hot).any():
                    self._set_corun_progress(hot)
            self.remaining_slots -= self._progress

        # Eq. (10) energy, routed to the accumulator of each user's state.
        draw_j = self._draw_j
        if overhead_j is None:
            slot_energy_j = self._slot_energy_j
            if slot_energy_j is None:
                slot_energy_j = ordered_sum(self._energy_j)
                self._slot_energy_j = slot_energy_j
        else:
            spent_j = self._energy_j + overhead_j
            slot_energy_j = ordered_sum(spent_j)
            draw_j = np.where(self.has_battery, spent_j, 0.0)
            self._battery_rest = False  # a draw no column holds
        self.accountant.add_slot(self._energy_rows, slot_energy_j, overhead_j)

        # Battery coulomb counting: discharge what the slot drew, then charge
        # idle devices that are plugged in.
        if not self._any_battery:
            return
        if self._battery_rest:
            self.battery_rest_slots += 1
            return
        charge_j = self.battery_charge_j
        drawn = np.minimum(draw_j, charge_j, out=self._scratch_delta)
        charge_j -= drawn
        self.battery_cycle_j += drawn
        added = np.subtract(self.battery_capacity_j, charge_j, out=self._scratch_added)
        np.minimum(self._charge_add_j, added, out=added)
        charge_j += added
        if probe and overhead_j is None:
            self._battery_rest = not (drawn.any() or added.any())

    def advance(self, decided_idle: np.ndarray) -> SlotAdvance:
        """Advance every device by one slot (the vectorized per-user device step).

        :meth:`_step` with the two things only a deciding slot has: the
        Table III overhead of the ready users the policy kept idle, and the
        detection of finished jobs.

        Args:
            decided_idle: per-user mask of ready users the policy kept idle
                this slot (the Table III overhead applies to them only).

        Returns:
            The finished trainees.
        """
        self._flush_started()
        overhead_j = None
        if self.config.include_scheduler_overhead and decided_idle.any():
            # Table III: deciding-but-idle devices burn the decision-rule power.
            deciders = np.nonzero(decided_idle & (self._state == _IDLE))[0]
            if len(deciders):
                overhead_j = self._scratch_overhead_j
                overhead_j.fill(0.0)
                overhead_j[deciders] = self._overhead_step_j[deciders]
        self._step(overhead_j)
        finished_users = _NO_USERS
        if self._num_training:
            finished = self.training_active & (self.remaining_slots <= 0.0)
            if finished.any():
                finished_users = np.nonzero(finished)[0]
                self.training_active[finished_users] = False
                self._num_training -= len(finished_users)
                self._retarget(finished_users)
        return SlotAdvance(finished_users=finished_users)

    # -- event-horizon fast forward -------------------------------------------------------

    def quiet_horizon(self, slot: int, total_slots: int) -> int:
        """Upper bound on the advanceable quiet slots starting at ``slot``.

        A quiet slot is one in which no *scheduling* event can happen: no
        pending arrival, no ready user (both checked by the engine) and no
        training completion.  Application launches and expiries do **not**
        bound the region — :meth:`advance_quiet` replays them on the slots
        they fall on, because they only retarget the Eq. (10) power level
        and the co-running slowdown of the affected devices.

        Per-slot training progress never exceeds one (every slowdown factor
        is at least 1), so no job can finish in fewer than
        ``ceil(min(remaining_slots))`` slots and every slot strictly before
        that is completion-free.  The completion slot itself is *not* quiet:
        the engine processes the upload through the normal slot path.
        Battery-eligibility flips are not part of the static horizon either;
        the quiet loop detects them per slot and shortens the advance.
        """
        k = total_slots - slot
        if self._num_training:
            min_remaining = float(self.remaining_slots[self.training_active].min())
            k = min(k, int(math.ceil(min_remaining)) - 1)
        return k

    def stalled_sync_users(self) -> List[int]:
        """Users permanently unable to join a synchronous round.

        A user below its battery participation threshold with a zero charge
        rate can never recover (idle slots drain, nothing charges), so a
        synchronous round must not wait for it.  Users currently training are
        never stalled — they finish on battery and upload.
        """
        if not self._any_battery:
            return []
        mask = (
            self.has_battery
            & (self.battery_rate_w == 0.0)
            & ~self.training_active
            & ~self.battery_ok()
        )
        return np.nonzero(mask)[0].tolist()

    def quiet_snapshot(self) -> tuple:
        """Copy of every primary array :meth:`advance_quiet` can mutate.

        The sharded engine advances quiet regions with a two-phase commit:
        every shard *tries* the region up to its own bound, the coordinator
        takes the minimum, and shards that advanced further restore this
        snapshot and re-advance to the agreed count.  Restoring is exact —
        the snapshot covers application state, thermal state, training
        progress, batteries, the waiting counters of idle ready users and
        the energy accumulators (the complete mutation set of the quiet
        loop; ready/training flags and the launch schedule are invariant
        inside a quiet region).  The derived columns are not copied:
        :meth:`quiet_restore` rebuilds them.
        """
        return (
            self.waiting_slots.copy(),
            self.app_active.copy(),
            self.app_end_slot.copy(),
            self.app_power_w.copy(),
            self.corun_power_w.copy(),
            self.app_slowdown.copy(),
            self.app_names.copy(),
            self.temperature_c.copy(),
            self.remaining_slots.copy(),
            self.battery_charge_j.copy(),
            self.battery_cycle_j.copy(),
            self.accountant.quiet_state(),
        )

    def quiet_restore(self, snapshot: tuple) -> None:
        """Restore the state captured by :meth:`quiet_snapshot`."""
        (
            self.waiting_slots,
            self.app_active,
            self.app_end_slot,
            self.app_power_w,
            self.corun_power_w,
            self.app_slowdown,
            self.app_names,
            self.temperature_c,
            self.remaining_slots,
            self.battery_charge_j,
            self.battery_cycle_j,
            accountant_state,
        ) = snapshot
        self.accountant.restore_quiet_state(accountant_state)
        self._rebuild()

    # -- checkpointing -----------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Every dynamic (run-mutated) array of the fleet, as plain copies.

        The static calibration arrays (power levels, thermal constants,
        training durations, the launch schedule) are rebuilt bitwise from
        the configuration by the shard builders, and the derived columns
        from the restored arrays by :meth:`load_state_dict`, so only the
        state a run mutates is captured.  ``base_params`` is not part of it:
        the vectors are the coordinator's pinned bases (a checkpoint holds
        each once, there), re-bound by ``FleetShard.restore_state``.
        """
        return {
            "temperature_c": self.temperature_c.copy(),
            "momentum_norms": self.momentum_norms.copy(),
            "ready": self.ready.copy(),
            "waiting_slots": self.waiting_slots.copy(),
            "base_version": self.base_version.copy(),
            "app_active": self.app_active.copy(),
            "app_end_slot": self.app_end_slot.copy(),
            "app_power_w": self.app_power_w.copy(),
            "corun_power_w": self.corun_power_w.copy(),
            "app_slowdown": self.app_slowdown.copy(),
            "app_names": self.app_names.copy(),
            "training_active": self.training_active.copy(),
            "remaining_slots": self.remaining_slots.copy(),
            "battery_charge_j": self.battery_charge_j.copy(),
            "battery_cycle_j": self.battery_cycle_j.copy(),
            "accountant": self.accountant.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore the state captured by :meth:`state_dict`."""
        self.temperature_c = np.asarray(state["temperature_c"], dtype=float).copy()
        self.momentum_norms = np.asarray(state["momentum_norms"], dtype=float).copy()
        self.ready = np.asarray(state["ready"], dtype=bool).copy()
        # int32 on purpose (see __init__): checkpoints written before the
        # compaction restore through the same coercion, so dtypes never
        # widen back silently.
        self.waiting_slots = np.asarray(state["waiting_slots"], dtype=np.int32).copy()
        self.base_version = np.asarray(state["base_version"], dtype=np.int32).copy()
        self.base_params = [None] * self.num_users
        self.app_active = np.asarray(state["app_active"], dtype=bool).copy()
        self.app_end_slot = np.asarray(state["app_end_slot"], dtype=np.int32).copy()
        self.app_power_w = np.asarray(state["app_power_w"], dtype=float).copy()
        self.corun_power_w = np.asarray(state["corun_power_w"], dtype=float).copy()
        self.app_slowdown = np.asarray(state["app_slowdown"], dtype=float).copy()
        self.app_names = np.asarray(state["app_names"], dtype=object).copy()
        self.training_active = np.asarray(state["training_active"], dtype=bool).copy()
        self.remaining_slots = np.asarray(state["remaining_slots"], dtype=float).copy()
        self.battery_charge_j = np.asarray(state["battery_charge_j"], dtype=float).copy()
        self.battery_cycle_j = np.asarray(state["battery_cycle_j"], dtype=float).copy()
        self.accountant.load_state_dict(state["accountant"])
        self._rebuild()

    def advance_quiet(
        self,
        start_slot: int,
        max_slots: int,
        trace_interval: Optional[int],
        capture_user_totals: bool = False,
        idle: np.ndarray = _NO_USERS,
    ) -> Tuple[int, List[int], List[float], Optional[List[np.ndarray]]]:
        """Advance up to ``max_slots`` quiet slots: a loop of :meth:`_step`.

        Preconditions (established by the engine and :meth:`quiet_horizon`):
        the ready pool is ``idle`` (empty, or users the policy certified
        idle for ``max_slots`` slots), there are no pending arrivals and no
        training job completes within the advanced range.  Each slot adds
        one waiting slot and the Table III decision overhead of the
        ``idle`` users, as :meth:`advance` does for users decided idle.
        What a quiet
        region skips is everything *around* the device physics — the ready
        pool, the policy, the queues, the protocol round trips — not the
        physics: every slot runs the same step :meth:`advance` runs, and
        :meth:`begin_slot_apps` runs at the top of exactly the slots that
        have a launch (the ``_launch_slot_list`` cursor) or an expiry
        (``_next_expiry``) due, as the slot-by-slot path would.

        The region ends early, handing the slot back to the normal path,

        * before a slot in which a co-running job would progress by more
          than one slot per slot (``app_slowdown < 1``: the completion bound
          of :meth:`quiet_horizon` no longer holds; ``begin_slot_apps`` is
          idempotent per slot, so the hand-back is exact);
        * before a slot in which an application of an ``idle`` user starts
          or stops (it changes that user's decision inputs);
        * after a slot in which a *ready* user's battery eligibility flipped
          — a gated one that charges crossed its participation threshold,
          or an eligible one drained below it: from the next slot on the
          ready pool is another one, an event the engine must process.

        Returns:
            ``(advanced, tick_offsets, tick_totals, tick_user_totals)`` —
            the number of slots actually advanced, the 0-based offsets
            within the region that fall on the trace-sampling grid
            (``trace_interval=None`` disables tick capture entirely — the
            summary-telemetry mode), the system-wide cumulative energy at
            each of those offsets (what ``accountant.total_j()`` would have
            returned there), and — only when ``capture_user_totals`` is set
            — the *per-user* cumulative totals at each tick, which the
            sharded coordinator folds across shards in global user order to
            reproduce the single-process tick totals bit for bit.
        """
        self._flush_started()
        acc = self.accountant
        overhead_j: Optional[np.ndarray] = None
        idle_users = set(idle.tolist()) if len(idle) else None
        idle_expiry = _NEVER
        if idle_users:
            with_app = idle[self.app_active[idle]]
            if len(with_app):
                idle_expiry = int(self.app_end_slot[with_app].min())
            deciders = idle[self._state[idle] == _IDLE]
            if self.config.include_scheduler_overhead and len(deciders):
                overhead_j = np.zeros(self.num_users)
                overhead_j[deciders] = self._overhead_step_j[deciders]
        watch: Optional[np.ndarray] = None
        if self._any_battery:
            # Ready users whose eligibility can flip: the eligible ones (a
            # drain takes them out of the pool) and the gated ones that
            # charge.  The set is constant across the region (ready and
            # training flags cannot change here).
            eligible = self.battery_ok()
            flippable = (
                self.ready
                & ~self.training_active
                & self.has_battery
                & (eligible | (self.battery_rate_w > 0))
            )
            if flippable.any():
                watch = np.nonzero(flippable)[0]
                watch_eligible = eligible[watch]
                drains = watch_eligible.any()
                watch_capacity_j = self.battery_capacity_j[watch]
                watch_min_soc = self.battery_min_soc[watch]
        launch_slots = self._launch_slot_list
        launch_pos = bisect.bisect_left(launch_slots, start_slot)
        next_launch = launch_slots[launch_pos] if launch_pos < len(launch_slots) else _NEVER
        tick_offsets: List[int] = []
        tick_totals: List[float] = []
        tick_user_totals: Optional[List[np.ndarray]] = (
            [] if capture_user_totals else None
        )
        advanced = 0
        while advanced < max_slots:
            slot = start_slot + advanced
            if slot >= idle_expiry:
                break
            if slot >= next_launch or slot >= self._next_expiry:
                if idle_users and slot >= next_launch:
                    if not idle_users.isdisjoint(user for user, _ in self._launches.get(slot, ())):
                        break
                self.begin_slot_apps(slot)
                while next_launch <= slot:
                    launch_pos += 1
                    next_launch = (
                        launch_slots[launch_pos] if launch_pos < len(launch_slots) else _NEVER
                    )
            if self._corun_outruns_clock:
                break
            self._step(overhead_j)
            acc.close_slot()
            if trace_interval is not None and slot % trace_interval == 0:
                user_totals = acc.user_totals_j()  # folded as total_j() does
                tick_offsets.append(advanced)
                tick_totals.append(ordered_sum(user_totals))
                if tick_user_totals is not None:
                    tick_user_totals.append(user_totals)
            advanced += 1
            if watch is not None and not self._battery_rest:
                flipped = self.battery_charge_j[watch] / watch_capacity_j >= watch_min_soc
                if drains:  # an eligible one draining below the gate flips too
                    flipped ^= watch_eligible
                if flipped.any():
                    break
        if idle_users:
            self.waiting_slots[idle] += advanced
        return advanced, tick_offsets, tick_totals, tick_user_totals

    # -- reporting ---------------------------------------------------------------------

    def final_battery_soc(self) -> List[float]:
        """End-of-run state of charge of every battery-powered user."""
        batt = self.has_battery
        return (self.battery_charge_j[batt] / self.battery_capacity_j[batt]).tolist()

    def plane_counters(self) -> Dict[str, int]:
        """How event-driven the run was: slot steps taken, per-user column
        rewrites (application, start and finish events), and the slots each
        plane spent at rest."""
        return {
            "steps": self.steps,
            "retargets": self.retargets,
            "thermal_rest_slots": self.thermal_rest_slots,
            "battery_rest_slots": self.battery_rest_slots,
        }

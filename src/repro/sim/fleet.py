"""Vectorized struct-of-arrays fleet backend for the simulation engine.

The paper's evaluation (Section VII.B) simulates 25 users, and the original
engine mirrors that scale: :meth:`repro.sim.engine.SimulationEngine.run`
iterates pure-Python ``for`` loops over every user in every slot, so the
wall-clock cost of a run is O(slots x users) *interpreter* time.  This
module makes fleet size a NumPy axis instead:

* :class:`FleetState` holds the per-user simulation state as parallel
  ``float64`` / ``int64`` / ``bool`` arrays — ready flags, waiting slots,
  base model versions, foreground-application status, Eq. (12) gradient
  gaps, battery state of charge and the per-slot Eq. (10) power draw —
  plus the static per-device calibration (the four Table II/III power
  levels, training durations, thermal constants).
* :meth:`FleetState.advance` replaces the per-user ``MobileDevice.step``
  loop with array kernels: Eq. (10) power selection, first-order thermal
  update, Observation 2 contention slowdown, training-progress decrement
  and battery charge/discharge all happen fleet-wide per slot.
* :class:`FleetEnergyAccountant` accumulates the Eq. (10) energy breakdown
  in per-user arrays while remaining API-compatible with
  :class:`repro.energy.power_model.EnergyAccountant`.

**Bitwise equivalence.**  The backend is held to a strict contract: with
the same configuration and seed, the vectorized engine produces *bitwise
identical* decisions, energy traces and gap traces to the per-user loop
engine (``tests/test_fleet.py`` enforces this).  Three implementation rules
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
   ``np.power``.

The loop engine touches every user's gap in ascending user order in slot 0
(all users are ready then), so its insertion-ordered dict reductions
coincide with ascending-user array reductions — rule 2 relies on this.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.device.apps import ForegroundApp
from repro.device.models import DeviceSpec
from repro.device.thermal import ThermalModel
from repro.energy.battery import Battery
from repro.energy.power_model import DeviceState, EnergyBreakdown, PowerModel
from repro.fl.client import FLClient
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

    Accumulates the Eq. (10) per-slot energies into one ``float64`` array
    per activity state (plus the Table III scheduler overhead) instead of
    one :class:`~repro.energy.power_model.EnergyBreakdown` object per user.
    The accessor API mirrors :class:`~repro.energy.power_model.EnergyAccountant`
    so :class:`~repro.sim.engine.SimulationResult` works with either.

    Reduction order matters for the bitwise-equivalence contract: the loop
    accountant computes ``total_j`` as a left-to-right Python ``sum`` of
    per-user totals in user order, so :meth:`total_j` does exactly that
    over ``tolist()`` values instead of calling ``np.sum``.

    The cumulative per-slot total series is maintained *incrementally*: every
    recorded slot contributes its left-to-right per-user energy sum to a
    running total (the loop accountant mirrors this).  The fast-forward
    kernel exploits this — during a quiet region the per-slot energy sum is
    constant, so :meth:`backfill_quiet` can extend the series with one float
    add per skipped slot.
    """

    def __init__(self, num_users: int) -> None:
        if num_users <= 0:
            raise ValueError("num_users must be positive")
        self.num_users = num_users  # reprolint: static
        self.idle_j = np.zeros(num_users)
        self.app_j = np.zeros(num_users)
        self.training_j = np.zeros(num_users)
        self.corunning_j = np.zeros(num_users)
        self.overhead_j = np.zeros(num_users)
        self._per_slot_total: List[float] = []
        self._running_total_j = 0.0
        self._slot_energy_j = 0.0

    # -- recording -----------------------------------------------------------------

    def record_slot(
        self,
        energy_j: np.ndarray,
        idle_mask: np.ndarray,
        app_mask: np.ndarray,
        training_mask: np.ndarray,
        corun_mask: np.ndarray,
        overhead_j: np.ndarray,
    ) -> None:
        """Record one slot of fleet-wide energy, split by activity state."""
        self.idle_j[idle_mask] += energy_j[idle_mask]
        self.app_j[app_mask] += energy_j[app_mask]
        self.training_j[training_mask] += energy_j[training_mask]
        self.corunning_j[corun_mask] += energy_j[corun_mask]
        self.overhead_j += overhead_j
        self._slot_energy_j = float(sum((energy_j + overhead_j).tolist()))

    def close_slot(self) -> None:
        """Snapshot the running system-wide total at the end of a slot."""
        self._running_total_j += self._slot_energy_j
        self._per_slot_total.append(self._running_total_j)
        self._slot_energy_j = 0.0

    def backfill_quiet(self, slot_energy_j: float, slots: int) -> None:
        """Extend the per-slot series for ``slots`` quiet slots at once.

        During a quiet region every slot draws the same fleet-wide energy
        ``slot_energy_j``, so the cumulative series advances by a constant
        increment — exactly what ``slots`` repeated
        :meth:`record_slot`/:meth:`close_slot` pairs would have appended.
        """
        running = self._running_total_j
        append = self._per_slot_total.append
        for _ in range(slots):
            running += slot_energy_j
            append(running)
        self._running_total_j = running

    # -- snapshot / merge (the shard layer's mutation-set contract) -------------------

    def quiet_state(self) -> tuple:
        """Copies of everything the quiet kernel can mutate in this accountant.

        Owned here so the mutation set and the field layout live in one
        class: :meth:`FleetState.quiet_snapshot` (the two-phase quiet
        commit) delegates to it.  ``overhead_j`` is excluded — quiet regions
        have no deciding-idle users, so the quiet kernel never touches it.
        """
        return (
            self.idle_j.copy(),
            self.app_j.copy(),
            self.training_j.copy(),
            self.corunning_j.copy(),
            list(self._per_slot_total),
            self._running_total_j,
        )

    def restore_quiet_state(self, state: tuple) -> None:
        """Restore :meth:`quiet_state` (single-use: arrays bind directly)."""
        (
            self.idle_j,
            self.app_j,
            self.training_j,
            self.corunning_j,
            per_slot_total,
            self._running_total_j,
        ) = state
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
        return {
            "idle_j": self.idle_j.copy(),
            "app_j": self.app_j.copy(),
            "training_j": self.training_j.copy(),
            "corunning_j": self.corunning_j.copy(),
            "overhead_j": self.overhead_j.copy(),
            "per_slot_total": list(self._per_slot_total),
            "running_total_j": self._running_total_j,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore the state captured by :meth:`state_dict`."""
        self.idle_j = np.asarray(state["idle_j"], dtype=float).copy()
        self.app_j = np.asarray(state["app_j"], dtype=float).copy()
        self.training_j = np.asarray(state["training_j"], dtype=float).copy()
        self.corunning_j = np.asarray(state["corunning_j"], dtype=float).copy()
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
        merged.idle_j = np.concatenate([a.idle_j for a in accountants])
        merged.app_j = np.concatenate([a.app_j for a in accountants])
        merged.training_j = np.concatenate([a.training_j for a in accountants])
        merged.corunning_j = np.concatenate([a.corunning_j for a in accountants])
        merged.overhead_j = np.concatenate([a.overhead_j for a in accountants])
        stacked = merge_slot_series([a._per_slot_total for a in accountants])
        if stacked is not None:
            merged._per_slot_total = stacked.tolist()
            merged._running_total_j = float(stacked[-1])
        return merged

    # -- accessors (EnergyAccountant-compatible) -------------------------------------

    def user_breakdown(self, user_id: int) -> EnergyBreakdown:
        """Energy breakdown for one user."""
        return EnergyBreakdown(
            idle_j=float(self.idle_j[user_id]),
            app_j=float(self.app_j[user_id]),
            training_j=float(self.training_j[user_id]),
            corunning_j=float(self.corunning_j[user_id]),
            overhead_j=float(self.overhead_j[user_id]),
        )

    def total_j(self) -> float:
        """System-wide total energy in joules (loop-accountant reduction order)."""
        totals = (
            self.idle_j + self.app_j + self.training_j + self.corunning_j + self.overhead_j
        )
        return float(sum(totals.tolist()))

    def total_kj(self) -> float:
        """System-wide total energy in kilojoules."""
        return self.total_j() / 1000.0

    def training_related_j(self) -> float:
        """Energy attributable to training (training-alone + co-running)."""
        return float(sum((self.training_j + self.corunning_j).tolist()))

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
    device_names: np.ndarray
    app_names: np.ndarray
    #: Catalog-code form of the two name columns plus their catalogs,
    #: filled by :meth:`FleetState.ready_payload`.  ``None`` (e.g. for a
    #: hand-built payload in a test) falls back to pickling the names as
    #: string lists.
    device_codes: Optional[np.ndarray] = None
    app_codes: Optional[np.ndarray] = None
    catalogs: Optional[Tuple[tuple, tuple]] = None

    def __len__(self) -> int:
        return len(self.users)

    def __reduce__(self):
        # Payloads cross the coordinator/shard boundary once per slot per
        # shard, so their pickle cost is protocol hot path.  Packing the
        # numeric columns into one float64 matrix turns thirteen array
        # reductions into one (and one large pickle-5 buffer the shm
        # plane can place out-of-band); the name columns travel as float
        # catalog codes — two more matrix rows plus a tuple of a few
        # strings — instead of per-user string lists.  Every conversion
        # is exact (ids, counters and catalog indices are far below
        # 2**53) and the restore side casts back to the original dtypes,
        # so the round trip is bitwise.
        columns = [
            self.users,
            self.app_running,
            self.power_corun_w,
            self.power_app_w,
            self.power_training_w,
            self.power_idle_w,
            self.momentum_norm,
            self.learning_rate,
            self.momentum_coeff,
            self.duration_slots,
            self.waiting_slots,
        ]
        if self.device_codes is not None and self.catalogs is not None:
            columns.extend((self.device_codes, self.app_codes))
            return (_restore_ready_payload, (np.stack(columns), self.catalogs))
        return (
            _restore_ready_payload,
            (
                np.stack(columns),
                (self.device_names.tolist(), self.app_names.tolist()),
            ),
        )


def _restore_ready_payload(packed: np.ndarray, names: tuple) -> ReadyPayload:
    """Rebuild a :class:`ReadyPayload` from its packed pickle form.

    ``names`` is either the pair of catalogs (13-row coded form) or the
    pair of literal name lists (11-row fallback form).
    """
    if len(packed) > 11:
        device_names = np.asarray(names[0], dtype=object)[packed[11].astype(np.intp)]
        app_names = np.asarray(names[1], dtype=object)[packed[12].astype(np.intp)]
    else:
        device_names = np.asarray(names[0], dtype=object)
        app_names = np.asarray(names[1], dtype=object)
    return ReadyPayload(
        users=packed[0].astype(np.int64),
        app_running=packed[1].astype(bool),
        power_corun_w=packed[2],
        power_app_w=packed[3],
        power_training_w=packed[4],
        power_idle_w=packed[5],
        momentum_norm=packed[6],
        learning_rate=packed[7],
        momentum_coeff=packed[8],
        duration_slots=packed[9].astype(np.int32),
        waiting_slots=packed[10].astype(np.int32),
        device_names=device_names,
        app_names=app_names,
    )


@dataclass
class SlotAdvance:
    """What happened fleet-wide during one vectorized slot advance.

    Attributes:
        energy_j: per-user Eq. (10) energy consumed this slot.
        finished_users: ascending user ids whose training job completed.
        state_masks: the four Eq. (10) activity masks occupied this slot,
            keyed by :class:`~repro.energy.power_model.DeviceState`.
    """

    energy_j: np.ndarray
    finished_users: np.ndarray
    state_masks: Dict[DeviceState, np.ndarray]


class FleetState:
    """Struct-of-arrays state of the whole device fleet.

    One instance replaces the per-user ``MobileDevice`` / ``Battery`` /
    ``GapTracker`` object graph for a single simulation run.  The engine
    orchestrates slots exactly as before (arrivals, decisions, parameter
    server, traces); this class supplies the vectorized kernels:

    * :meth:`begin_slot_apps` — foreground-application expiry and launches
      (step 1 of the slot timeline in :mod:`repro.sim.engine`);
    * :meth:`ready_users` — the ready pool, including the Android
      JobScheduler battery-participation condition (Section III.B);
    * :meth:`ready_payload` — the shard-resident half of the Eq. (22)/(23)
      decision inputs (the coordinator adds the lag and gap coupling
      columns, which live server-side);
    * :meth:`advance` — device advancement with Eq. (10) energy
      accumulation, thermal dynamics and training progress (step 3).

    The Eq. (12) gap dynamics deliberately do **not** live here: the gap sum
    ``G(t)`` feeds the global virtual queue, so the per-user gap array is
    coordinator state (:class:`repro.sim.coupling.CouplingCore`), exchanged
    with shards only through observation batches.

    Args:
        config: the run configuration.
        device_specs: static device description per user.
        power_model: the Eq. (10) power function (Table II/III calibrated).
        batteries: per-user battery or ``None`` (dev boards, disabled).
        clients: the FL clients (source of ``eta``, ``beta``, ``||v_t||``).
        arrivals: the pre-generated application arrival schedule.
    """

    def __init__(
        self,
        config: SimulationConfig,
        device_specs: Sequence[DeviceSpec],
        power_model: PowerModel,
        batteries: Sequence[Optional[Battery]],
        clients: Sequence[FLClient],
        arrivals: ArrivalSchedule,
    ) -> None:
        # The fleet covers len(device_specs) users — the whole population in
        # single-process runs, one contiguous shard slice under the sharded
        # engine.  Every internal index is local to this slice; the shard
        # layer owns the local <-> global translation.
        n = len(device_specs)
        if not (len(batteries) == len(clients) == n):
            raise ValueError("device_specs, batteries and clients must be equal-length")
        self.config = config  # reprolint: static
        self.num_users = n  # reprolint: static
        self.slot_seconds = config.slot_seconds  # reprolint: static
        self.power_model = power_model  # reprolint: static

        # -- static per-device calibration ------------------------------------
        names = [spec.name for spec in device_specs]
        self.device_names = np.asarray(names, dtype=object)  # reprolint: static
        # Catalog-code view of the name columns: payloads cross the shard
        # boundary once per slot, and shipping ~hundreds of strings per
        # message dominated the frame codec.  Codes are float64 so they
        # ride the packed payload matrix without a cast (catalog indices
        # are tiny, so the float representation is exact).
        device_catalog: List[str] = []
        device_code_of: Dict[str, float] = {}
        self._device_codes = np.empty(n)  # reprolint: static
        for index, name in enumerate(names):
            code = device_code_of.get(name)
            if code is None:
                code = float(len(device_catalog))
                device_code_of[name] = code
                device_catalog.append(name)
            self._device_codes[index] = code
        self._device_catalog: Tuple[str, ...] = tuple(device_catalog)  # reprolint: static
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
        self.learning_rates = np.array([c.learning_rate for c in clients])  # reprolint: static
        self.momentum_coeffs = np.array([c.momentum for c in clients])  # reprolint: static
        #: ``||v_t||_2`` cache — a client's momentum vector only changes when
        #: it trains, so the engine refreshes the entry after `local_train`.
        self.momentum_norms = np.array([c.momentum_norm() for c in clients])

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
        # Code 0.0 is reserved for "no foreground app" (``None``); real app
        # names are appended to the catalog on first launch.  Catalog order
        # is launch-chronological and never observable — codes only ever
        # translate back to the names they were assigned from.
        self._app_catalog: List[Optional[str]] = [None]  # reprolint: static (rebuilt from restored app_names on load)
        self._app_code_of: Dict[str, float] = {}  # reprolint: static (rebuilt from restored app_names on load)
        self._app_codes = np.zeros(n)

        self.training_active = np.zeros(n, dtype=bool)
        self.remaining_slots = np.zeros(n)

        # Hot-path scratch: advance() refills these every slot instead of
        # allocating (the allocation churn dominated the slot loop at
        # megafleet scale).  They carry no cross-slot state — anything
        # advance() returns or the accountant retains is a fresh array.
        self._scratch_power_w = np.empty(n)  # reprolint: static (scratch, refilled per slot)
        self._scratch_progress = np.empty(n)  # reprolint: static (scratch, refilled per slot)
        self._scratch_slowdown = np.empty(n)  # reprolint: static (scratch, refilled per slot)
        self._scratch_overhead_j = np.empty(n)  # reprolint: static (scratch, refilled per slot)
        self._scratch_decided_idle = np.empty(n, dtype=bool)  # reprolint: static (scratch, refilled per slot)

        # -- batteries ----------------------------------------------------------
        self.has_battery = np.array([b is not None for b in batteries], dtype=bool)  # reprolint: static
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

        # -- launch schedule and accounting ------------------------------------
        self._launches: Dict[int, List[Tuple[int, ForegroundApp]]] = {}  # reprolint: static (derived from the arrival schedule)
        for user in range(n):
            for app in arrivals.arrivals_for(user):
                self._launches.setdefault(app.arrival_slot, []).append((user, app))
        for slot_apps in self._launches.values():
            slot_apps.sort(key=lambda pair: pair[0])
        #: Event-iterator view of the schedule (sorted distinct launch slots),
        #: used by the fast-forward kernel to place segment boundaries.
        self._launch_slot_list: List[int] = arrivals.launch_slots()  # reprolint: static (derived from the arrival schedule)
        self.accountant = FleetEnergyAccountant(n)

    # -- step 1: foreground applications -----------------------------------------

    def begin_slot_apps(self, slot: int) -> None:
        """Expire finished foreground applications and launch new arrivals.

        Mirrors the loop engine exactly: expiry first (an app whose
        ``end_slot`` has passed leaves the foreground), then launches, so an
        arrival may reuse the slot its predecessor freed.
        """
        expired = self.app_active & (slot >= self.app_end_slot)
        if expired.any():
            self.app_active[expired] = False
            self.app_power_w[expired] = self.mean_app_w[expired]
            self.corun_power_w[expired] = self.mean_corun_w[expired]
            self.app_slowdown[expired] = 1.0
            self.app_names[expired] = None
            self._app_codes[expired] = 0.0
        for user, app in self._launches.get(slot, ()):
            if self.app_active[user]:
                continue
            device = self.device_names[user]
            self.app_active[user] = True
            self.app_end_slot[user] = app.end_slot()
            self.app_power_w[user] = self.power_model.app_power(device, app.name)
            self.corun_power_w[user] = self.power_model.corun_power(device, app.name)
            self.app_slowdown[user] = app.spec.training_slowdown
            self.app_names[user] = app.name
            self._app_codes[user] = self._app_code_for(app.name)

    def _app_code_for(self, name: str) -> float:
        """Catalog code for ``name``, appending it on first sight."""
        code = self._app_code_of.get(name)
        if code is None:
            code = float(len(self._app_catalog))
            self._app_code_of[name] = code
            self._app_catalog.append(name)
        return code

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
        return np.nonzero(self.ready & ~self.training_active & self.battery_ok())[0]

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
            device_names=self.device_names[users],
            app_names=self.app_names[users],
            device_codes=self._device_codes[users],
            app_codes=self._app_codes[users],
            catalogs=(self._device_catalog, tuple(self._app_catalog)),
        )

    def start_training(self, user: int) -> int:
        """Start a training job on ``user`` (the policy decided ``schedule``).

        Returns the nominal duration in slots (``d_i``).
        """
        if self.training_active[user]:
            raise RuntimeError(f"user {user}: training already in progress")
        duration = int(self.duration_slots[user])
        self.training_active[user] = True
        self.remaining_slots[user] = float(duration)
        self.ready[user] = False
        return duration

    # -- step 3: fleet-wide device advancement -------------------------------------------

    def advance(self, decided_idle: np.ndarray) -> SlotAdvance:
        """Advance every device by one slot (the vectorized ``MobileDevice.step``).

        Applies, fleet-wide and in the same per-element operation order as
        the scalar device runtime: Eq. (10) power selection, the energy
        accumulation, the first-order thermal update, the Observation 2
        contention slowdown with thermal throttling, the training-progress
        decrement, the Table III decision overhead for idle deciders, and
        the battery discharge/charge cycle.

        Args:
            decided_idle: per-user mask of ready users the policy kept idle
                this slot (the Table III overhead applies to them only).

        Returns:
            The per-user energies, finished trainees and activity masks.
        """
        app = self.app_active
        training = self.training_active
        corun = training & app
        training_only = training & ~app
        app_only = app & ~training
        idle = ~training & ~app

        # Eq. (10): one of the four power levels per device.  power_w is
        # per-slot scratch; energy_j stays a fresh array (SlotAdvance
        # returns it to callers that outlive the slot).
        power_w = self._scratch_power_w
        np.copyto(power_w, self.idle_w)
        power_w[app_only] = self.app_power_w[app_only]
        power_w[training_only] = self.training_w[training_only]
        power_w[corun] = self.corun_power_w[corun]
        energy_j = power_w * self.slot_seconds

        # First-order thermal RC: T += (T_target - T) * (1 - exp(-dt/tau)).
        target = self.ambient_c + self.degrees_per_watt * power_w
        self.temperature_c += (target - self.temperature_c) * self.thermal_alpha

        # Training progress; co-running jobs suffer contention (Observation 2)
        # and, when hot enough, thermal throttling.
        finished_users = np.empty(0, dtype=np.int64)
        if training.any():
            progress = self._scratch_progress
            progress.fill(1.0)
            if corun.any():
                slowdown = self._scratch_slowdown
                slowdown.fill(1.0)
                slowdown[corun] *= self.app_slowdown[corun]
                contended = corun & ~self.heterogeneous
                slowdown[contended] *= _HOMOGENEOUS_CONTENTION
                throttled = corun & (self.temperature_c >= self.throttle_temp_c)
                slowdown[throttled] *= self.throttle_slowdown[throttled]
                progress[corun] = 1.0 / slowdown[corun]
            self.remaining_slots[training] -= progress[training]
            finished = training & (self.remaining_slots <= 0.0)
            if finished.any():
                self.training_active[finished] = False
                finished_users = np.nonzero(finished)[0]

        # Table III: deciding-but-idle devices burn the decision-rule power.
        overhead_j = self._scratch_overhead_j
        overhead_j.fill(0.0)
        if self.config.include_scheduler_overhead:
            deciders = idle & decided_idle
            overhead_j[deciders] = (
                self.overhead_w[deciders] - self.idle_w[deciders]
            ) * self.slot_seconds

        self.accountant.record_slot(
            energy_j, idle, app_only, training_only, corun, overhead_j
        )

        # Battery coulomb counting: discharge what the slot drew, then charge
        # idle devices that are plugged in.
        if self.has_battery.any():
            batt = self.has_battery
            draw = energy_j + overhead_j
            drawn = np.minimum(draw[batt], self.battery_charge_j[batt])
            self.battery_charge_j[batt] -= drawn
            self.battery_cycle_j[batt] += drawn
            charging = batt & idle & (self.battery_rate_w > 0)
            if charging.any():
                added = np.minimum(
                    self.battery_rate_w[charging] * self.slot_seconds,
                    self.battery_capacity_j[charging] - self.battery_charge_j[charging],
                )
                self.battery_charge_j[charging] += added

        return SlotAdvance(
            energy_j=energy_j,
            finished_users=finished_users,
            state_masks={
                DeviceState.IDLE: idle,
                DeviceState.APP_ONLY: app_only,
                DeviceState.TRAINING_ONLY: training_only,
                DeviceState.CORUNNING: corun,
            },
        )

    # -- event-horizon fast forward -------------------------------------------------------

    #: Fleet size above which the quiet kernel switches from per-user Python
    #: accumulation loops (cost ~n per slot) to per-slot NumPy kernels (cost
    #: ~constant per slot until arrays get large); both are bitwise-exact
    #: replays of :meth:`advance`, so the crossover is purely a speed trade.
    QUIET_NUMPY_THRESHOLD = 96

    def quiet_horizon(self, slot: int, total_slots: int) -> int:
        """Upper bound on the advanceable quiet slots starting at ``slot``.

        A quiet slot is one in which no *scheduling* event can happen: no
        pending arrival, no ready user (both checked by the engine) and no
        training completion.  Application launches and expiries do **not**
        bound the region — :meth:`advance_quiet` replays them in-kernel as
        segment boundaries, because they only re-select the Eq. (10) power
        level and the co-running slowdown of the affected devices.

        Per-slot training progress never exceeds one (every slowdown factor
        is at least 1), so no job can finish in fewer than
        ``ceil(min(remaining_slots))`` slots and every slot strictly before
        that is completion-free.  The completion slot itself is *not* quiet:
        the engine processes the upload through the normal slot path.
        Battery-eligibility flips are not part of the static horizon either;
        the battery kernel detects them per slot and shortens the advance.
        """
        k = total_slots - slot
        if self.training_active.any():
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
        mask = (
            self.has_battery
            & (self.battery_rate_w == 0.0)
            & ~self.training_active
            & ~self.battery_ok()
        )
        if not mask.any():
            return []
        return [int(user) for user in np.nonzero(mask)[0]]

    def quiet_snapshot(self) -> tuple:
        """Copy of every array :meth:`advance_quiet` can mutate.

        The sharded engine advances quiet regions with a two-phase commit:
        every shard *tries* the region up to its own bound, the coordinator
        takes the minimum, and shards that advanced further restore this
        snapshot and re-advance to the agreed count.  Restoring is exact —
        the snapshot covers application state, thermal state, training
        progress, batteries and the energy accumulators (the complete
        mutation set of the quiet kernel; ready/training flags and the
        launch schedule are invariant inside a quiet region).
        """
        return (
            self.app_active.copy(),
            self.app_end_slot.copy(),
            self.app_power_w.copy(),
            self.corun_power_w.copy(),
            self.app_slowdown.copy(),
            self.app_names.copy(),
            self._app_codes.copy(),
            self.temperature_c.copy(),
            self.remaining_slots.copy(),
            self.battery_charge_j.copy(),
            self.battery_cycle_j.copy(),
            self.accountant.quiet_state(),
        )

    def quiet_restore(self, snapshot: tuple) -> None:
        """Restore the state captured by :meth:`quiet_snapshot`."""
        (
            self.app_active,
            self.app_end_slot,
            self.app_power_w,
            self.corun_power_w,
            self.app_slowdown,
            self.app_names,
            self._app_codes,
            self.temperature_c,
            self.remaining_slots,
            self.battery_charge_j,
            self.battery_cycle_j,
            accountant_state,
        ) = snapshot
        self.accountant.restore_quiet_state(accountant_state)

    # -- checkpointing -----------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Every dynamic (run-mutated) array of the fleet, as plain copies.

        The static calibration arrays (power levels, thermal constants,
        training durations, the launch schedule) are rebuilt bitwise from
        the configuration by the shard builders, so only the state a run
        mutates is captured.  ``base_params`` is not part of it: the
        vectors are the coordinator's pinned bases (a checkpoint holds each
        once, there), re-bound by ``FleetShard.restore_state``.
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
        # Codes are derived state: rebuild them from the restored names
        # (checkpoints never persist the catalog — code numbering is free
        # to differ between a fresh and a restored run because codes only
        # ever translate back to the names they were assigned from).
        self._app_codes = np.zeros(len(self.app_names))
        for index, name in enumerate(self.app_names):
            if name is not None:
                self._app_codes[index] = self._app_code_for(name)
        self.training_active = np.asarray(state["training_active"], dtype=bool).copy()
        self.remaining_slots = np.asarray(state["remaining_slots"], dtype=float).copy()
        self.battery_charge_j = np.asarray(state["battery_charge_j"], dtype=float).copy()
        self.battery_cycle_j = np.asarray(state["battery_cycle_j"], dtype=float).copy()
        self.accountant.load_state_dict(state["accountant"])

    def advance_quiet(
        self,
        start_slot: int,
        max_slots: int,
        trace_interval: Optional[int],
        capture_user_totals: bool = False,
    ) -> Tuple[int, List[int], List[float], Optional[List[np.ndarray]]]:
        """Advance up to ``max_slots`` quiet slots in one fused region kernel.

        Preconditions (established by the engine and :meth:`quiet_horizon`):
        the ready pool is empty, there are no pending arrivals and no
        training job completes within the advanced range.  The region is
        processed as a sequence of *segments* separated by application
        launches and expiries — the kernel replays
        :meth:`begin_slot_apps` at each boundary slot, exactly as the
        slot-by-slot path would at the top of that slot.  Within a segment
        the activity masks — and therefore every per-user slot energy,
        thermal target and battery draw — are constant, and the per-slot
        work reduces to the bitwise-exact replay of :meth:`advance`'s
        arithmetic:

        * energy accumulators receive one repeated addition of the same
          per-user slot energy per slot (IEEE-754 repeated addition has no
          closed form, so the kernel really performs the additions — as
          tight Python float loops for small fleets, per-slot array kernels
          for large ones);
        * the thermal state iterates ``T += (T_target - T) * alpha``,
          short-circuiting once it reaches its floating-point fixpoint
          (further iterations cannot change it);
        * non-co-running training progresses exactly one slot per slot, so
          ``remaining_slots -= seg_len`` reproduces per-slot unit decrements
          exactly; co-running jobs replay the Observation 2 slowdown per
          slot, with the thermal-throttle predicate evaluated against the
          same temperature trajectory the slot-by-slot path sees;
        * batteries replay the discharge/charge kernel per slot, stopping
          the whole region early when a battery-gated ready user crosses its
          participation threshold (the pool becomes non-empty — an event),
          and short-circuiting once every battery is drained or full;
        * the cumulative per-slot energy series advances by a constant
          increment per segment (:meth:`FleetEnergyAccountant.backfill_quiet`).

        Returns:
            ``(advanced, tick_offsets, tick_totals, tick_user_totals)`` —
            the number of slots actually advanced (shorter than
            ``max_slots`` on a battery flip), the 0-based offsets within the
            region that fall on the trace-sampling grid
            (``trace_interval=None`` disables tick capture entirely — the
            summary-telemetry mode), the system-wide cumulative energy at
            each of those offsets (what ``accountant.total_j()`` would have
            returned there), and — only when ``capture_user_totals`` is set
            — the *per-user* cumulative totals at each tick, which the
            sharded coordinator folds across shards in global user order to
            reproduce the single-process tick totals bit for bit.
        """
        n = self.num_users
        acc = self.accountant
        use_python = n < self.QUIET_NUMPY_THRESHOLD
        if use_python:
            lists = [
                acc.idle_j.tolist(),
                acc.app_j.tolist(),
                acc.training_j.tolist(),
                acc.corunning_j.tolist(),
            ]
            overhead_list = acc.overhead_j.tolist()
        has_battery = bool(self.has_battery.any())
        watch_idx: Optional[np.ndarray] = None
        if has_battery:
            # Battery-gated ready users that charge can re-enter the pool;
            # the watch set is constant across the region (every ready user
            # is already gated, and ready/training flags cannot change here).
            watch = (
                self.ready
                & ~self.training_active
                & self.has_battery
                & ~self.battery_ok()
                & (self.battery_rate_w > 0)
            )
            if watch.any():
                watch_idx = np.nonzero(watch)[0]
        launch_list = self._launch_slot_list
        num_launch = len(launch_list)
        launch_pos = bisect.bisect_left(launch_list, start_slot)
        region_end = start_slot + max_slots
        advanced = 0
        flipped = False
        tick_offsets: List[int] = []
        tick_totals: List[float] = []
        tick_user_totals: Optional[List[np.ndarray]] = (
            [] if capture_user_totals else None
        )
        while advanced < max_slots and not flipped:
            seg_slot = start_slot + advanced
            # Top-of-slot application bookkeeping for the segment boundary.
            # begin_slot_apps is idempotent per slot, so handing the slot
            # back to the normal path after an early break stays exact.
            self.begin_slot_apps(seg_slot)
            app = self.app_active
            training = self.training_active
            corun = training & app
            training_only = training & ~app
            app_only = app & ~training
            idle = ~training & ~app
            if corun.any() and float(self.app_slowdown[corun].min()) < 1.0:
                break  # progress > 1/slot would break the completion bound

            # Segment length: up to (excluding) the next application event.
            seg_end = region_end
            while launch_pos < num_launch and launch_list[launch_pos] <= seg_slot:
                launch_pos += 1
            if launch_pos < num_launch and launch_list[launch_pos] < seg_end:
                seg_end = launch_list[launch_pos]
            if app.any():
                next_expiry = int(self.app_end_slot[app].min())
                if next_expiry < seg_end:
                    seg_end = next_expiry
            seg_len = seg_end - seg_slot
            if seg_len <= 0:
                break  # defensive; boundaries above are strictly ahead

            # Eq. (10) power levels — constant across the segment.
            power_w = self.idle_w.copy()
            power_w[app_only] = self.app_power_w[app_only]
            power_w[training_only] = self.training_w[training_only]
            power_w[corun] = self.corun_power_w[corun]
            energy_j = power_w * self.slot_seconds

            # Batteries first: they may cut the segment at an eligibility flip.
            seg_done = seg_len
            if has_battery:
                seg_done, flipped = self._advance_quiet_batteries(
                    energy_j, idle, seg_len, watch_idx
                )
                if seg_done <= 0:
                    break

            self._advance_quiet_thermal(power_w, corun, seg_done)

            # Non-co-running training: exactly 1.0 progress per slot, so the
            # closed form reproduces seg_done unit decrements bit for bit.
            if training_only.any():
                self.remaining_slots[training_only] -= float(seg_done)

            # Energy accumulation with trace-tick capture.
            if use_python:
                state_code = (training.astype(np.int64) * 2 + app).tolist()
                self._accumulate_segment_python(
                    lists,
                    overhead_list,
                    energy_j.tolist(),
                    state_code,
                    seg_slot,
                    seg_done,
                    trace_interval,
                    advanced,
                    tick_offsets,
                    tick_totals,
                    tick_user_totals,
                )
            else:
                self._accumulate_segment_numpy(
                    energy_j,
                    (idle, app_only, training_only, corun),
                    seg_slot,
                    seg_done,
                    trace_interval,
                    advanced,
                    tick_offsets,
                    tick_totals,
                    tick_user_totals,
                )

            # Cumulative per-slot energy series: constant increment per slot.
            acc.backfill_quiet(float(sum(energy_j.tolist())), seg_done)
            advanced += seg_done
        if use_python:
            acc.idle_j[:] = lists[0]
            acc.app_j[:] = lists[1]
            acc.training_j[:] = lists[2]
            acc.corunning_j[:] = lists[3]
        return advanced, tick_offsets, tick_totals, tick_user_totals

    def _advance_quiet_thermal(
        self, power_w: np.ndarray, corun: np.ndarray, seg_done: int
    ) -> None:
        """Thermal RC + co-running progress for one quiet segment.

        Iterates the first-order update fleet-wide, fused with the per-slot
        co-running progress whose throttle predicate reads the just-updated
        temperature — the same ordering as :meth:`advance`.  With no
        co-running observer the iteration short-circuits at its
        floating-point fixpoint; with co-running users every slot is
        iterated (the predicate consumes each intermediate temperature).
        """
        target = self.ambient_c + self.degrees_per_watt * power_w
        corun_users: List[int] = []
        corun_free: List[float] = []
        corun_throttled: List[float] = []
        corun_threshold: List[float] = []
        corun_remaining: List[float] = []
        if corun.any():
            for user in np.nonzero(corun)[0]:
                user = int(user)
                slowdown = 1.0 * float(self.app_slowdown[user])
                if not self.heterogeneous[user]:
                    slowdown = slowdown * _HOMOGENEOUS_CONTENTION
                corun_users.append(user)
                corun_free.append(1.0 / slowdown)
                corun_throttled.append(
                    1.0 / (slowdown * float(self.throttle_slowdown[user]))
                )
                corun_threshold.append(float(self.throttle_temp_c[user]))
                corun_remaining.append(float(self.remaining_slots[user]))
        num_corun = len(corun_users)
        temp = self.temperature_c
        alpha = self.thermal_alpha
        done = 0
        if num_corun == 0:
            # No observer of intermediate temperatures: probe one slot to
            # find the users still moving.  Devices at their floating-point
            # fixpoint stay there (target is constant within the segment),
            # so when few users are cooling/heating the whole segment
            # reduces to per-user scalar loops with early fixpoint exit —
            # Python and NumPy float64 arithmetic are the same IEEE-754
            # operations, so the scalar replay is bit-exact.
            new = temp + (target - temp) * alpha
            moving = np.nonzero(new != temp)[0]
            if len(moving) == 0:
                done = seg_done  # whole fleet already at its fixpoint
            elif len(moving) <= 8:
                temp = new
                done = 1
                for user in moving:
                    user = int(user)
                    x = float(temp[user])
                    t_u = float(target[user])
                    a_u = float(alpha[user])
                    for _ in range(seg_done - 1):
                        nx = x + (t_u - x) * a_u
                        if nx == x:
                            break
                        x = nx
                    temp[user] = x
                done = seg_done
        # Fixpoint detection in the array loop: a per-slot equality test
        # would double the cost of the (already tiny) update, so candidates
        # are probed against a snapshot every 64 slots and confirmed with a
        # consecutive-slot comparison — only a consecutive comparison proves
        # a fixpoint (a snapshot match alone could be a rounding cycle).
        check_fixpoint = (seg_done - done) >= 64 and num_corun == 0
        snapshot = temp if check_fixpoint else None
        probe = done
        while done < seg_done:
            if check_fixpoint and (done - probe) % 64 == 0 and done > probe:
                if np.array_equal(temp, snapshot):
                    new = temp + (target - temp) * alpha
                    if np.array_equal(new, temp):
                        break
                    check_fixpoint = False  # rounding cycle: finish plainly
                snapshot = temp
            new = temp + (target - temp) * alpha
            temp = new
            done += 1
            for i in range(num_corun):
                corun_remaining[i] -= (
                    corun_throttled[i]
                    if temp[corun_users[i]] >= corun_threshold[i]
                    else corun_free[i]
                )
        self.temperature_c = temp
        for i in range(num_corun):
            self.remaining_slots[corun_users[i]] = corun_remaining[i]

    def _advance_quiet_batteries(
        self,
        energy_j: np.ndarray,
        idle: np.ndarray,
        seg_len: int,
        watch_idx: Optional[np.ndarray],
    ) -> Tuple[int, bool]:
        """Replay the battery kernel per quiet slot for one segment.

        Returns ``(slots_done, flipped)``.  ``flipped`` is ``True`` when a
        charging, battery-gated *ready* user crossed its participation
        threshold — from the next slot on the ready pool is non-empty, which
        is an event the engine must process through the normal path.  When
        every battery stops changing (drained with nothing charging, or
        full), the remaining slots are exact no-ops and are skipped.
        """
        # Work on contiguous compressed copies of the battery-user arrays and
        # write back once: the per-element arithmetic (and therefore every
        # rounding decision) is identical to the masked in-place updates of
        # advance(), only the indexing overhead changes.
        batt = self.has_battery
        batt_idx = np.nonzero(batt)[0]
        draw_b = energy_j[batt]
        charge_b = self.battery_charge_j[batt]
        cycle_b = self.battery_cycle_j[batt]
        charging = batt & idle & (self.battery_rate_w > 0)
        has_charging = bool(charging.any())
        if has_charging:
            added_cap = self.battery_rate_w[charging] * self.slot_seconds
            capacity_c = self.battery_capacity_j[charging]
            charging_pos = np.nonzero(charging[batt])[0]
        if watch_idx is not None:
            watch_pos = np.searchsorted(batt_idx, watch_idx)
            watch_capacity = self.battery_capacity_j[watch_idx]
            watch_min_soc = self.battery_min_soc[watch_idx]
        done_slots = seg_len
        flipped = False
        for done in range(seg_len):
            drawn = np.minimum(draw_b, charge_b)
            charge_b -= drawn
            cycle_b += drawn
            if has_charging:
                added = np.minimum(added_cap, capacity_c - charge_b[charging_pos])
                charge_b[charging_pos] += added
            if watch_idx is not None:
                eligible = charge_b[watch_pos] / watch_capacity >= watch_min_soc
                if eligible.any():
                    done_slots, flipped = done + 1, True
                    break
            if not drawn.any() and (not has_charging or not added.any()):
                break  # battery fixpoint: the rest of the segment is a no-op
        self.battery_charge_j[batt] = charge_b
        self.battery_cycle_j[batt] = cycle_b
        return done_slots, flipped

    def _accumulate_segment_python(
        self,
        lists: List[List[float]],
        overhead_list: List[float],
        e_list: List[float],
        state_code: List[int],
        seg_slot: int,
        seg_done: int,
        trace_interval: Optional[int],
        region_offset: int,
        tick_offsets: List[int],
        tick_totals: List[float],
        tick_user_totals: Optional[List[np.ndarray]],
    ) -> None:
        """Per-user Python accumulation (small fleets): repeated additions.

        Python and NumPy ``float64`` addition are the same IEEE-754
        operation, so accumulating each user's active-state energy in a
        scalar loop reproduces the per-slot masked array additions bit for
        bit.  ``lists`` are the region-persistent accumulator snapshots
        (``[idle, app, training, corunning]``); ``state_code`` indexes them
        (``2 * training + app``).
        """
        n = self.num_users
        if trace_interval is None:
            seg_ticks: List[int] = []
        else:
            seg_ticks = [
                j for j in range(seg_done) if (seg_slot + j) % trace_interval == 0
            ]
        captures: List[List[float]] = [[0.0] * n for _ in seg_ticks]
        for user in range(n):
            active = lists[state_code[user]]
            x = active[user]
            e = e_list[user]
            position = 0
            for t_i, offset in enumerate(seg_ticks):
                for _ in range(offset + 1 - position):
                    x += e
                position = offset + 1
                captures[t_i][user] = x
            for _ in range(seg_done - position):
                x += e
            active[user] = x
        # Per-tick system totals, in total_j()'s exact reduction order:
        # ((((idle + app) + training) + corun) + overhead), then a
        # left-to-right sum over users.  Components other than a user's
        # active one did not change during this segment, so the current
        # list values are their tick-time values.
        for t_i, offset in enumerate(seg_ticks):
            cap = captures[t_i]
            total = 0
            user_totals = np.empty(n) if tick_user_totals is not None else None
            for user in range(n):
                code = state_code[user]
                v_idle = cap[user] if code == 0 else lists[0][user]
                v_app = cap[user] if code == 1 else lists[1][user]
                v_training = cap[user] if code == 2 else lists[2][user]
                v_corun = cap[user] if code == 3 else lists[3][user]
                user_total = (
                    (((v_idle + v_app) + v_training) + v_corun)
                    + overhead_list[user]
                )
                if user_totals is not None:
                    user_totals[user] = user_total
                total = total + user_total
            tick_offsets.append(region_offset + offset)
            tick_totals.append(float(total))
            if tick_user_totals is not None:
                tick_user_totals.append(user_totals)

    def _accumulate_segment_numpy(
        self,
        energy_j: np.ndarray,
        masks: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        seg_slot: int,
        seg_done: int,
        trace_interval: Optional[int],
        region_offset: int,
        tick_offsets: List[int],
        tick_totals: List[float],
        tick_user_totals: Optional[List[np.ndarray]],
    ) -> None:
        """Per-slot array accumulation (large fleets): masked adds per slot."""
        acc = self.accountant
        idle, app_only, training_only, corun = masks
        groups = []
        for array, mask in (
            (acc.idle_j, idle),
            (acc.app_j, app_only),
            (acc.training_j, training_only),
            (acc.corunning_j, corun),
        ):
            index = np.nonzero(mask)[0]
            if len(index):
                groups.append((array, index, energy_j[index]))
        for offset in range(seg_done):
            for array, index, values in groups:
                array[index] += values
            if trace_interval is not None and (seg_slot + offset) % trace_interval == 0:
                # Same per-user formula and user-order fold as total_j().
                user_totals = (
                    acc.idle_j + acc.app_j + acc.training_j + acc.corunning_j
                ) + acc.overhead_j
                tick_offsets.append(region_offset + offset)
                tick_totals.append(float(sum(user_totals.tolist())))
                if tick_user_totals is not None:
                    tick_user_totals.append(user_totals)

    # -- reporting ---------------------------------------------------------------------

    def final_battery_soc(self) -> List[float]:
        """End-of-run state of charge of every battery-powered user."""
        return [
            float(self.battery_charge_j[u] / self.battery_capacity_j[u])
            for u in range(self.num_users)
            if self.has_battery[u]
        ]

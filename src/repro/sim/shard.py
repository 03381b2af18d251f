"""Sharded fleet engine: the population partitioned across worker processes.

Section V's distributed-implementation argument is an architecture statement:
each device decides locally from broadcast backlogs and a server-supplied lag
estimate, so the *only* state that couples users is what flows through the
parameter server — the global model/version, the in-flight set, the
``Q(t)``/``H(t)`` backlogs, and the gap sum ``G(t)``.  This module exploits
that boundary literally:

* the **coordinator** owns exactly the coupling state
  (:class:`~repro.sim.coupling.CouplingCore`: server, policy queues, gaps,
  sync buffer, transfer count, traces, evaluation);
* each **shard** owns a contiguous slice of the population's per-user state
  (:class:`FleetShard`: the struct-of-arrays
  :class:`~repro.sim.fleet.FleetState`, batteries, application churn, FL
  clients and their actual NumPy training), running either in-process
  (:class:`InlineShardHandle` — the single-process engine) or in its own
  worker process (:class:`ProcessShardHandle` — :class:`ShardedEngine`).

Per slot, coordinator and shards exchange only the paper's coupling state:
downloads (version + parameters), ready-pool observations, decisions,
finished uploads, and backlog-derived scalars.  Between events, every shard
fast-forwards its quiet region in lock-step to the global event horizon
(two-phase try/commit, so a battery flip in one shard never lets another
shard overshoot).

**Determinism contract.**  For any shard count, a sharded run is *bitwise
identical* to the single-process run: shards are
contiguous (so per-shard iteration in shard order is ascending-user
iteration), uploads apply in deterministic ascending user order, decisions
are made on the concatenated global observation batch (the policy sees the
exact slot-wise inputs of the single-process engine, including same-slot lag
coupling across shard boundaries), reductions that are float folds (energy
totals, the gap sum) are computed coordinator-side over per-user values in
global user order, and per-user RNG streams (client shuffling, arrivals) are
partition-independent.  ``tests/test_shard.py`` holds the engine to this
contract at 1, 2 and 4 process shards.
"""

from __future__ import annotations

import bisect
import multiprocessing
import os
import pickle
import signal
import time
import traceback
from dataclasses import dataclass
from functools import partial
from itertools import chain, groupby
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.columns import ordered_sum
from repro.core.online import OnlinePolicy
from repro.core.policies import (
    Aggregation,
    IdleForecast,
    ObservationBatch,
    SchedulingPolicy,
    SlotContext,
    scheduled_lags,
)
from repro.core.staleness import gradient_gap
from repro.energy.measurements import MeasurementTable
from repro.energy.power_model import PowerModel
from repro.faults.retry import RetryPolicy, poll_intervals
from repro.fl.blas import blas_threads, pin_blas_threads
from repro.fl.client import FLClient, LocalUpdate
from repro.fl.server import AsyncUpdateRule
from repro.sim.arrivals import ArrivalSchedule
from repro.sim.config import SimulationConfig
from repro.sim.coupling import CouplingCore
from repro.sim.engine import (
    Coordinator,
    SimulationResult,
    build_dataset,
    build_device_specs,
    build_population,
    build_rngs,
    install_coordinator,
    restore_engine,
)
from repro.sim.fleet import FleetEnergyAccountant, FleetState, ReadyPayload
from repro.sim.shmplane import REPLY, REQUEST, ShardMailbox
from repro.sim.timers import EngineTimers
from repro.sim.trace import SlotSample

if TYPE_CHECKING:
    from repro.device.models import DeviceSpec
    from repro.energy.battery import Battery
    from repro.faults.plan import FaultInjector
    from repro.service.checkpoint import Checkpointer, EngineCheckpoint

__all__ = [
    "FleetShard",
    "InlineShardHandle",
    "ProcessShardHandle",
    "ShardDied",
    "ShardFailure",
    "ShardTimeout",
    "ShardedEngine",
    "build_observation_batch",
    "default_start_method",
    "drive_fleet_loop",
    "shard_bounds",
]

#: Deadline (s) of any one coordinator wait on a shard worker's reply; a
#: worker silent for longer is declared hung (:class:`ShardTimeout`).
IPC_TIMEOUT_S = 600.0

#: Shard failures (worker death, IPC timeout) one supervised run repairs
#: before it re-raises the last of them.
MAX_RESPAWNS = 3

#: Backoff before each respawn of a supervised run.
_RESPAWN_BACKOFF = RetryPolicy(max_attempts=MAX_RESPAWNS, base_delay_s=0.05, cap_s=2.0)


def default_start_method() -> str:
    """The ``multiprocessing`` start method of every worker pool and shard
    worker: ``"fork"`` where the platform has it, else its default."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


class ShardFailure(RuntimeError):
    """A shard worker failed in a way supervision can repair.

    Raised by :class:`ProcessShardHandle` when the worker *process* is
    gone or unresponsive — as opposed to a worker that replied with a
    Python traceback, which is a deterministic bug and is deliberately
    *not* retried (re-running deterministic code re-raises the same
    error; see :meth:`ProcessShardHandle.wait`).
    """

    def __init__(self, shard_index: int, message: str) -> None:
        super().__init__(message)
        self.shard_index = shard_index


class ShardDied(ShardFailure):
    """The worker process exited (crash, SIGKILL, OOM-kill) mid-protocol."""


class ShardTimeout(ShardFailure):
    """The worker process is alive but did not reply within the IPC timeout."""


def shard_bounds(num_users: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` user ranges for ``shards`` partitions.

    Users are split as evenly as possible: the first ``num_users % shards``
    shards carry one extra user, the last shard is the ragged (smallest)
    one.  More shards than users clamp to one user per shard.  Contiguity is
    load-bearing for the determinism contract — iterating shards in order is
    iterating users in ascending order.
    """
    if num_users <= 0:
        raise ValueError("num_users must be positive")
    if shards <= 0:
        raise ValueError("shards must be positive")
    shards = min(shards, num_users)
    base, remainder = divmod(num_users, shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for index in range(shards):
        size = base + (1 if index < remainder else 0)
        bounds.append((lo, lo + size))
        lo += size
    return bounds


# ---------------------------------------------------------------------------
# Protocol payloads (everything crossing a shard boundary must pickle)
# ---------------------------------------------------------------------------


@dataclass
class SlotOpenReply:
    """Shard reply to ``open_slot``: its ready pool and training count."""

    payload: ReadyPayload
    num_training: int


class SlotUploads:
    """One shard's uploads of a slot, ascending by user, released in lists.

    Planned (``blocks`` and ``train`` given: what :meth:`FleetShard.run_slot`
    returns in process) it holds the slot's training blocks untrained —
    ``blocks`` are positions into ``users`` (:meth:`FLClient.plan_blocks`)
    and ``train(block)`` trains one.  :meth:`release` trains each block
    when its first user is released and lets it go once its last one is,
    so at most one block per sample-count group is alive at a time, and
    the stream itself keeps nothing once released.  Packed (``updates``
    given: a decoded process shard reply) the uploads are already trained.

    Attributes:
        users: the finishers, global ids, ascending.
    """

    def __init__(
        self,
        users: List[int],
        updates: Optional[List[LocalUpdate]] = None,
        blocks: Optional[List[List[int]]] = None,
        train: Optional[Callable[[List[int]], List[LocalUpdate]]] = None,
    ) -> None:
        self.users = users
        self._updates = updates
        self._blocks = blocks
        self._train = train

    def release(self) -> Iterator[List[LocalUpdate]]:
        """The uploads in ascending user order, as lists; one pass."""
        if self._blocks is None:
            updates, self._updates = self._updates, None
            if updates:
                yield updates
            return
        blocks, train = self._blocks, self._train
        self._blocks = self._train = None
        trained: List[Optional[List[LocalUpdate]]] = [None] * len(blocks)
        for block, start, stop in _block_runs(blocks):
            if start == 0:
                trained[block] = train(blocks[block])
            yield trained[block][start:stop]
            if stop == len(blocks[block]):
                trained[block] = None

    def collect(self) -> List[LocalUpdate]:
        """Every upload at once, kept: what a synchronous round buffers and
        a process shard ships."""
        if self._blocks is not None:
            self._updates = [update for run in self.release() for update in run]
        return self._updates or []


def _block_runs(blocks: List[List[int]]) -> List[Tuple[int, int, int]]:
    """``(block, start, stop)``: the planned blocks' slices in ascending
    position order.  Blocks of one group follow one another whole; groups
    that interleave cut each other's blocks into runs."""
    owner = [0] * sum(map(len, blocks))
    for index, block in enumerate(blocks):
        for position in block:
            owner[position] = index
    runs = []
    taken = [0] * len(blocks)
    for index, run in groupby(owner):
        start = taken[index]
        taken[index] = stop = start + len(list(run))
        runs.append((index, start, stop))
    return runs


@dataclass
class SlotExecReply:
    """Shard reply to ``run_slot``.

    Pickled (only by a process shard) in a packed form: the worker trains
    the slot's whole upload stream, which then travels as one ``(k, 6)``
    float64 meta matrix and one ``(k, P)`` delta block (plus a params block
    when the merge rule needs absolute vectors), so every block above the
    shm plane's inline cut goes out-of-band through the mailbox slab
    instead of ``k`` small in-band arrays.  The receiver's updates are row
    views of the block it decoded.

    Attributes:
        uploads: the slot's finishers and their upload stream, ascending
            user order (global ids).
        tick_total: shard-local cumulative energy fold at a trace tick
            (``None`` off-grid); bitwise-equal to ``accountant.total_j()``.
        tick_user_totals: per-user cumulative totals at the tick, shipped
            only under multi-shard full tracing so the coordinator can fold
            the global total in user order.
        next_ready: size of the shard's ready pool entering the next slot,
            re-armed finishers not counted.
        spec_open: piggybacked ``open_slot(slot + 1)`` reply, produced when
            the shard re-armed finishers or was allowed to speculate on its
            ready users (see :meth:`FleetShard.run_slot`).  It saves the
            shard's open round trip of the next slot; an explicit
            ``open_slot`` follows only for arrivals the shard did not
            re-arm (sync-round releases, merged idempotently).
    """

    uploads: SlotUploads
    tick_total: Optional[float]
    tick_user_totals: Optional[np.ndarray]
    next_ready: int
    spec_open: Optional[SlotOpenReply] = None

    def __reduce__(self):
        # Every integer of the meta matrix (user, version, samples, batches)
        # is far below 2**53, so the float64 round trip is exact.
        updates = self.uploads.collect()
        meta = np.array(
            [
                (u.user_id, u.base_version, u.num_samples, u.num_batches, u.train_loss, u.momentum_norm)
                for u in updates
            ],
            dtype=np.float64,
        )
        deltas = params = None
        if updates:
            deltas = np.stack([u.delta for u in updates])
            if updates[0].params is not None:  # one merge rule per run
                params = np.stack([u.params for u in updates])
        return (
            _restore_slot_exec_reply,
            (meta, deltas, params, self.tick_total, self.tick_user_totals,
             self.next_ready, self.spec_open),
        )


def _restore_slot_exec_reply(
    meta: np.ndarray,
    deltas: Optional[np.ndarray],
    params: Optional[np.ndarray],
    tick_total: Optional[float],
    tick_user_totals: Optional[np.ndarray],
    next_ready: int,
    spec_open: Optional[SlotOpenReply],
) -> SlotExecReply:
    """Rebuild a :class:`SlotExecReply` from its packed pickle form."""
    users, updates = [], []
    for row, (user, version, samples, batches, loss, norm) in enumerate(meta.tolist()):
        user = int(user)
        users.append(user)
        updates.append(
            LocalUpdate(
                user_id=user,
                delta=deltas[row],
                base_version=int(version),
                num_samples=int(samples),
                train_loss=loss,
                momentum_norm=norm,
                num_batches=int(batches),
                params=None if params is None else params[row],
            )
        )
    return SlotExecReply(
        SlotUploads(users, updates), tick_total, tick_user_totals, next_ready, spec_open
    )


@dataclass
class QuietTryReply:
    """Shard reply to ``quiet_try``: how far it could advance, uncommitted.

    ``spec_open`` is the slot's ``open_slot`` reply, produced when the
    coordinator allowed speculation and the shard advanced nothing: the
    global count is then zero, so the slot path runs this slot next.
    """

    advanced: int
    num_training: int
    spec_open: Optional[SlotOpenReply] = None


@dataclass
class QuietCommitReply:
    """Shard reply to ``quiet_commit``: tick data of the committed region."""

    tick_offsets: List[int]
    tick_totals: List[float]
    tick_user_totals: Optional[List[np.ndarray]]
    next_ready: int


@dataclass
class ShardFinal:
    """Everything a shard reports once the horizon is exhausted."""

    accountant: FleetEnergyAccountant
    final_battery_soc: List[float]
    training_seconds: float
    #: BLAS threads in effect in the process that ran the shard.
    blas_threads: Optional[int]
    #: :meth:`FleetState.plane_counters` of the shard's fleet (slot steps,
    #: retargets, slots at rest) as counted by the process that finished it.
    fleet_plane: Dict[str, int]


def build_observation_batch(
    slot: int,
    slot_seconds: float,
    payloads: Sequence[ReadyPayload],
    server: ParameterServer,
    gaps: np.ndarray,
) -> ObservationBatch:
    """Assemble the global per-slot observation batch from shard payloads.

    Payloads arrive in shard order with globally-ascending user ids, so
    concatenation reproduces exactly the batch the single-process engine
    builds from its full-population arrays; the two coupling columns —
    server lag estimates and Eq. (12) gaps — are filled from coordinator
    state here, which is what makes the batch identical across shard
    layouts (the lag estimate consults the *global* in-flight set).
    """
    def column(name: str) -> np.ndarray:
        if len(payloads) == 1:  # zero-copy for the single-shard loop
            return getattr(payloads[0], name)
        return np.concatenate([getattr(p, name) for p in payloads])

    users = column("users")
    duration_slots = column("duration_slots")
    now_s = slot * slot_seconds
    durations_s = duration_slots * slot_seconds
    lags = server.estimate_lags(users, now_s, durations_s)
    return ObservationBatch(
        slot=slot,
        slot_seconds=slot_seconds,
        user_ids=users,
        app_running=column("app_running"),
        power_corun_w=column("power_corun_w"),
        power_app_w=column("power_app_w"),
        power_training_w=column("power_training_w"),
        power_idle_w=column("power_idle_w"),
        estimated_lag=lags,
        momentum_norm=column("momentum_norm"),
        learning_rate=column("learning_rate"),
        momentum_coeff=column("momentum_coeff"),
        training_duration_slots=duration_slots,
        waiting_slots=column("waiting_slots"),
        current_gap=gaps[users],
    )


# ---------------------------------------------------------------------------
# Shard-side execution unit
# ---------------------------------------------------------------------------


class FleetShard:
    """One contiguous population slice plus its execution kernels.

    Wraps a slice-local :class:`~repro.sim.fleet.FleetState` and the slice's
    FL clients, and exposes the slot-stage methods the coordinator drives —
    the same methods whether the shard runs in-process (single-process
    engine) or inside a worker process (sharded engine).  All protocol
    arguments and replies use
    *global* user ids; internally everything is slice-local (``- lo``).

    Args:
        config: the (full-population) run configuration.
        lo / hi: the global user range ``[lo, hi)`` this shard owns.
        device_specs / batteries: the slice's components, already sliced to
            ``hi - lo`` entries.
        clients: the slice's client plane (users ``[lo, hi)``).
        arrivals: the slice's arrival schedule, re-indexed to local ids
            (:meth:`~repro.sim.arrivals.ArrivalSchedule.slice_users`).
        include_params: ship absolute parameter vectors in uploads (non-
            accumulate merge rules).
        timers: profiling sink; the single-process engine passes its own so
            training time lands in the same report.
    """

    def __init__(
        self,
        config: SimulationConfig,
        lo: int,
        hi: int,
        device_specs: Sequence["DeviceSpec"],
        power_model: PowerModel,
        batteries: Sequence[Optional["Battery"]],
        clients: FLClient,
        arrivals: ArrivalSchedule,
        include_params: bool,
        timers: Optional[EngineTimers] = None,
    ) -> None:
        if hi - lo != len(device_specs):
            raise ValueError("device_specs must cover exactly [lo, hi)")
        self.config = config  # reprolint: static
        self.lo = lo
        self.hi = hi
        if len(clients) != hi - lo:
            raise ValueError("clients must cover exactly [lo, hi)")
        self.clients = clients
        self.fleet = FleetState(
            config=config,
            device_specs=device_specs,
            power_model=power_model,
            batteries=batteries,
            arrivals=arrivals,
        )
        self.include_params = include_params  # reprolint: static
        # Profiling only; training seconds are reported, never checkpointed.
        self.timers = timers if timers is not None else EngineTimers(enabled=True)  # reprolint: static
        # Uncommitted quiet-region try state; checkpoints happen only at slot
        # boundaries, where every try has been committed or rolled back.  A
        # try the coordinator settles on zero slots gets no commit: the
        # shard's next slot-stage request rolls it back.
        self._quiet_stash: Optional[tuple] = None  # reprolint: static
        # Slice-local ids of the finishers the last ``run_slot`` re-armed,
        # whose base is a placeholder until the next ``run_slot`` request
        # carries the coordinator's download.
        self._awaiting_download: List[int] = []
        # Highest slot whose application churn already ran — makes
        # ``open_slot`` idempotent so the speculative open piggybacked on
        # ``run_slot`` composes with a later arrival-merging open of the
        # same slot (never checkpointed: snapshots only happen at
        # boundaries where no speculation was allowed).
        self._opened_slot = -1  # reprolint: static

    @classmethod
    def build(
        cls,
        config: SimulationConfig,
        lo: int,
        hi: int,
        arrivals: ArrivalSchedule,
        measurement_table: Optional[MeasurementTable],
        timers: Optional[EngineTimers] = None,
    ) -> "FleetShard":
        """Reconstruct the shard's slice of the system inside a worker.

        Uses the engine's own component builders with the same RNG streams,
        so the slice is bitwise-identical to the corresponding rows of a
        full single-process build; only the arrival schedule is shipped in
        (already generated by the coordinator, whose ``arrivals`` stream it
        consumed).
        """
        pin_blas_threads()  # a fresh worker process: before its first gemm
        rngs = build_rngs(config)
        device_specs = build_device_specs(config, rngs["devices"])
        power_model, batteries, clients = build_population(
            config,
            measurement_table or MeasurementTable(),
            device_specs,
            build_dataset(config),
            rngs["dataset"],
            lo,
            hi,
        )
        include_params = config.async_rule is not AsyncUpdateRule.ACCUMULATE
        return cls(
            config=config,
            lo=lo,
            hi=hi,
            device_specs=device_specs[lo:hi],
            power_model=power_model,
            batteries=batteries,
            clients=clients,
            arrivals=arrivals,
            include_params=include_params,
            timers=timers,
        )

    # -- slot stages (called by the coordinator, global ids) -------------------

    def open_slot(
        self,
        slot: int,
        arriving: Sequence[int],
        version: Optional[int],
        params: Optional[np.ndarray],
    ) -> SlotOpenReply:
        """Step 1+2 of the slot: application churn, arrivals, ready pool.

        Idempotent per slot: when the churn for ``slot`` already ran (the
        speculative open piggybacked on the previous ``run_slot``), only
        the arrivals are merged and the payload rebuilt — the same state
        the one-shot call would have produced, since ``begin_slot_apps``
        precedes ``make_ready`` either way and neither touches the other's
        state.

        ``version is None`` with ``arriving`` non-empty re-arms finishers
        (only :meth:`run_slot` does that): they join the ready pool on a
        placeholder base that the next ``run_slot`` request replaces.
        """
        self._drop_quiet_stash()
        fleet = self.fleet
        if self._opened_slot < slot:
            fleet.begin_slot_apps(slot)
            self._opened_slot = slot
        if len(arriving) and version is None:
            self._awaiting_download = [user - self.lo for user in arriving]
            version = -1
        for user in arriving:
            fleet.make_ready(user - self.lo, version, params)
        users_local = fleet.ready_users()
        payload = fleet.ready_payload(users_local)
        payload.users = users_local + self.lo
        return SlotOpenReply(
            payload=payload, num_training=int(fleet.training_active.sum())
        )

    def run_slot(
        self,
        slot: int,
        scheduled: Sequence[int],
        idle: Sequence[int],
        want_tick: bool,
        capture_users: bool,
        speculate: bool = False,
        rearm: bool = False,
        download: Optional[Tuple[int, np.ndarray]] = None,
    ) -> SlotExecReply:
        """Steps 2b–3: apply decisions, advance the slice, train finishers.

        ``speculate`` lets a shard with ready users open ``slot + 1`` in
        this round trip.  ``rearm`` (asynchronous aggregation: finishers
        re-arrive next slot) re-readies this slot's finishers in that
        open, which then runs even without ``speculate`` — their pending
        arrival keeps the next slot off the fast-forward path.  Their
        download is the coordinator's, made next slot in global order; it
        arrives as the next call's ``download`` and is pinned first.  That
        is exact because a base is read only when a job completes or a
        snapshot is taken, both later.
        """
        self._drop_quiet_stash()
        fleet = self.fleet
        lo = self.lo
        if self._awaiting_download:
            if download is None:
                raise RuntimeError(
                    f"run_slot({slot}) without the download of re-armed users "
                    f"{[user + lo for user in self._awaiting_download]}"
                )
            version, params = download
            for local in self._awaiting_download:
                fleet.base_version[local] = version
                fleet.base_params[local] = params
            self._awaiting_download = []
        if len(scheduled):
            fleet.start_training(np.asarray(scheduled, dtype=np.int64) - lo)
        # Per-slot scratch owned by the fleet; advance() only reads it.
        decided_idle = fleet._scratch_decided_idle
        decided_idle.fill(False)
        if len(idle):
            idle_local = np.asarray(idle, dtype=np.int64) - lo
            fleet.waiting_slots[idle_local] += 1
            decided_idle[idle_local] = True
        outcome = fleet.advance(decided_idle)
        finishers = outcome.finished_users.tolist()
        if finishers:
            bases = []
            for local in finishers:
                base = fleet.base_params[local]
                assert base is not None  # pinned at download
                bases.append(base)
            versions = fleet.base_version[finishers].tolist()
            uploads = SlotUploads(
                [local + lo for local in finishers],
                blocks=self.clients.plan_blocks(finishers),
                train=partial(self._train_block, finishers, bases, versions),
            )
        else:
            uploads = SlotUploads([], [])
        tick_total = None
        tick_user_totals = None
        if want_tick:
            acc = fleet.accountant
            # Same per-user formula and fold order as accountant.total_j().
            user_totals = (
                acc.idle_j + acc.app_j + acc.training_j + acc.corunning_j
            ) + acc.overhead_j
            tick_total = ordered_sum(user_totals)
            if capture_users:
                tick_user_totals = user_totals
        next_ready = len(fleet.ready_users())
        rearmed = uploads.users if rearm else []
        spec_open = None
        if rearmed or (speculate and next_ready > 0):
            # Either way the next protocol step for this shard is
            # ``open_slot(slot + 1)`` — run it now and save the round trip.
            # ``begin_slot_apps`` never changes ready eligibility, so
            # ``next_ready`` keeps its pre-open meaning.  The open reads the
            # re-armed finishers' momentum norms: train them first.
            uploads.collect()
            spec_open = self.open_slot(slot + 1, rearmed, None, None)
        return SlotExecReply(
            uploads=uploads,
            tick_total=tick_total,
            tick_user_totals=tick_user_totals,
            next_ready=next_ready,
            spec_open=spec_open,
        )

    def _train_block(
        self,
        finishers: List[int],
        bases: List[np.ndarray],
        versions: List[int],
        block: List[int],
    ) -> List[LocalUpdate]:
        """Train one planned block of the slot's ``finishers`` (slice-local
        ids; ``block`` holds positions into them) in one
        :meth:`FLClient.local_train` call, charged to ``training``."""
        tick = self.timers.start()
        users = [finishers[position] for position in block]
        updates = FLClient.local_train(
            self.clients,
            users,
            [bases[position] for position in block],
            [versions[position] for position in block],
            include_params=self.include_params,
        )
        norms = self.fleet.momentum_norms
        for local, update in zip(users, updates):
            norms[local] = update.momentum_norm
        self.timers.stop("training", tick)
        return updates

    # -- event-horizon fast forward (two-phase) ---------------------------------

    def quiet_try(
        self,
        slot: int,
        want_ticks: bool,
        capture_users: bool,
        two_phase: bool = True,
        limit: Optional[int] = None,
        idle: Sequence[int] = (),
        speculate: bool = False,
    ) -> QuietTryReply:
        """Phase 1: advance the quiet region up to this shard's own bound.

        ``idle`` are the global ids of this shard's ready users that the
        policy certified idle for ``limit`` slots (empty: a region with no
        ready user); a ready pool that is not exactly them advances nothing.

        With ``two_phase`` (any multi-shard run) the advance happens against
        a snapshot, so the coordinator's agreed global count (the minimum
        across shards) can be committed exactly in :meth:`quiet_commit` —
        shards that advanced further roll back and re-advance; a shard that
        advanced exactly the agreed count keeps its state (truncation never
        changes earlier slots' arithmetic).  A single-shard loop passes
        ``two_phase=False``: its own bound *is* the global minimum, so the
        snapshot copies are skipped on the fast-forward hot path.

        ``limit`` additionally caps the advance (the checkpointer uses it to
        stop a region at the next checkpoint boundary); quiet regions are
        split-exact at any slot boundary, so the cap is bitwise-free.

        A global count of zero is never committed: the shard's next
        slot-stage request rolls the try back.  With ``speculate``, a shard
        that advanced nothing knows that count is zero and opens ``slot``
        in this reply (:attr:`QuietTryReply.spec_open`).
        """
        self._require_downloads("quiet_try")
        self._drop_quiet_stash()
        fleet = self.fleet
        num_training = int(fleet.training_active.sum())
        ready = fleet.ready_users()
        horizon = 0
        if len(ready) == len(idle) and not (
            len(ready) and (ready != np.asarray(idle) - self.lo).any()
        ):
            horizon = fleet.quiet_horizon(slot, self.config.total_slots)
            if limit is not None:
                horizon = min(horizon, limit)
        advanced = 0
        if horizon > 0:
            interval = self.config.trace_interval_slots if want_ticks else None
            snapshot = fleet.quiet_snapshot() if two_phase else None
            advanced, offsets, totals, user_totals = fleet.advance_quiet(
                slot, horizon, interval, capture_users, ready
            )
            self._quiet_stash = (
                slot,
                snapshot,
                advanced,
                offsets,
                totals,
                user_totals,
                interval,
                capture_users,
                ready,
            )
        spec_open = None
        if speculate and advanced == 0:
            spec_open = self.open_slot(slot, (), None, None)
        return QuietTryReply(
            advanced=advanced, num_training=num_training, spec_open=spec_open
        )

    def _drop_quiet_stash(self) -> None:
        """Roll back a try the coordinator settled on zero slots (a
        single-phase try is never cut short: its own count is the global one)."""
        stash, self._quiet_stash = self._quiet_stash, None
        if stash is not None and stash[2] > 0:
            self.fleet.quiet_restore(stash[1])

    def _require_downloads(self, method: str) -> None:
        """Refuse ``method`` while a re-armed finisher's base is a placeholder."""
        if self._awaiting_download:
            raise RuntimeError(
                f"{method} while re-armed users "
                f"{[user + self.lo for user in self._awaiting_download]} "
                "await their download"
            )

    def quiet_commit(self, count: int) -> QuietCommitReply:
        """Phase 2: settle on the globally-agreed advance count.

        ``count`` is positive (a zero count is never posted, see
        :meth:`quiet_try`) and at most this shard's own try.
        """
        fleet = self.fleet
        stash, self._quiet_stash = self._quiet_stash, None
        if stash is None or count <= 0:
            raise RuntimeError(f"quiet_commit({count}) without a pending quiet_try")
        slot, snapshot, advanced, offsets, totals, user_totals, interval, capture, idle = stash
        if count != advanced:
            if snapshot is None:  # single-phase try can never be cut short
                raise RuntimeError(
                    f"quiet_commit({count}) after a single-phase try of {advanced}"
                )
            fleet.quiet_restore(snapshot)
            redone, offsets, totals, user_totals = fleet.advance_quiet(
                slot, count, interval, capture, idle
            )
            if redone != count:  # count <= the shard's own stop bound
                raise RuntimeError(
                    f"quiet region re-advance made {redone} slots, wanted {count}"
                )
        return QuietCommitReply(
            tick_offsets=offsets,
            tick_totals=totals,
            tick_user_totals=user_totals,
            next_ready=len(fleet.ready_users()),
        )

    # -- checkpointing -----------------------------------------------------------

    def checkpoint_state(self) -> Dict:
        """The shard's complete mutable state as one plain picklable dict.

        A slice names its *global* user range, so slices from different
        shard layouts are interchangeable —
        :func:`repro.service.checkpoint.reslice` can re-partition them for a
        restore under a different shard count.
        Client state captures exactly what training mutates: the
        bit-generator state of the per-user batch-sampling RNG and the
        round counter in ``clients``, the momentum vector in ``velocities``
        (:meth:`FLClient.checkpoint_state`).  A velocity is *lent*, not
        copied: the next round continues on a private copy instead of
        writing into the (read-only) array the snapshot holds, so a snapshot
        costs nothing for users that do not train while it is alive, and
        ``(user, rounds_completed)`` names a vector's content for good.
        """
        self._require_downloads("checkpoint_state")
        clients, velocities = self.clients.checkpoint_state()
        return {
            "lo": self.lo,
            "hi": self.hi,
            "fleet": self.fleet.state_dict(),
            "clients": clients,
            "velocities": velocities,
        }

    def restore_state(self, state: Dict, bases: Dict[int, np.ndarray]) -> None:
        """Install a checkpoint slice (global-keyed) into this shard.

        ``bases`` are the coordinator's pinned base vectors of this slice's
        users (a checkpoint holds them once, coordinator-side); users
        between upload and next download have none and need none.
        """
        lo = self.lo
        if state["lo"] != lo or state["hi"] != self.hi:
            raise ValueError(
                f"checkpoint slice [{state['lo']}, {state['hi']}) does not match "
                f"shard [{lo}, {self.hi})"
            )
        self.fleet.load_state_dict(state["fleet"])
        for user, params in bases.items():
            self.fleet.base_params[user - lo] = params
        # Snapshots are only taken at boundaries whose slot has not been
        # opened (speculation is suppressed there), so the restored shard
        # must run the churn on its first open_slot.
        self._opened_slot = -1
        self._awaiting_download = []
        self.clients.restore_state(state["clients"], state["velocities"])

    # -- queries / teardown -------------------------------------------------------

    def stalled_users(self) -> List[int]:
        """Global ids of this shard's permanently-stalled synchronous users."""
        return [user + self.lo for user in self.fleet.stalled_sync_users()]

    def finalize(self) -> ShardFinal:
        """Collect the shard's end-of-run state for the merged result."""
        self._require_downloads("finalize")
        return ShardFinal(
            accountant=self.fleet.accountant,
            final_battery_soc=self.fleet.final_battery_soc(),
            training_seconds=float(self.timers.seconds.get("training", 0.0)),
            blas_threads=blas_threads(),
            fleet_plane=self.fleet.plane_counters(),
        )


# ---------------------------------------------------------------------------
# Shard handles: in-process and worker-process transports
# ---------------------------------------------------------------------------


class InlineShardHandle:
    """Direct in-process shard invocation (the single-process engine)."""

    #: A call is no round trip, so piggybacking the next slot's open on
    #: ``run_slot`` would save nothing — and cost a second open whenever an
    #: arrival then lands on the slot.
    piggyback_open = False

    def __init__(self, shard: FleetShard) -> None:
        self.shard = shard
        self._result: Any = None

    def post(self, method: str, *args: Any) -> None:
        self._result = getattr(self.shard, method)(*args)

    def wait(self) -> Any:
        result, self._result = self._result, None
        return result

    def close(self) -> None:  # pragma: no cover - nothing to tear down
        pass


#: Protocol methods whose first argument is the current slot — the hook
#: points where worker-side fault events check their arming condition.
_SLOT_METHODS = ("open_slot", "run_slot", "quiet_try")

#: Replies the coordinator consumes before the same shard's next exchange,
#: so their array payloads may stay zero-copy views over the mailbox slab.
#: Everything else is copied on receive: a ``run_slot`` reply's upload
#: block is copied once and its rows, the updates, outlive the slot in
#: ``CouplingCore.sync_buffer``; ``checkpoint_state`` dicts feed
#: snapshots, and ``finalize`` accountants survive segment teardown.
_ZERO_COPY_REPLIES = frozenset({"open_slot", "quiet_try", "quiet_commit"})


def _maybe_inject_worker_fault(
    events: List[Dict], method: str, args: Tuple
) -> bool:
    """Execute any armed fault events for this request (worker-side).

    Returns ``True`` when the request must be swallowed without a reply
    (``drop_message``).  Events are plain dicts shipped in ``init_kwargs``;
    one-shot kinds mark themselves ``fired`` in place.  ``kill_shard`` fires
    on the first slot at or past ``at`` (event-horizon fast-forward can jump
    over the exact slot), exactly how the coordinator-side bookkeeping in
    :meth:`repro.faults.plan.FaultInjector.consume_engine_through` assumes.
    """
    if method not in _SLOT_METHODS or not args:
        return False
    slot = int(args[0])
    for event in events:
        if event.get("fired"):
            continue
        kind = event["kind"]
        at = int(event["at"])
        if kind == "kill_shard" and slot >= at:
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == "delay_ipc" and slot >= at:
            event["fired"] = True
            time.sleep(float(event.get("delay_s", 0.0)))
        elif kind == "slow_shard" and at <= slot < at + int(event.get("span", 1)):
            time.sleep(float(event.get("delay_s", 0.0)))
        elif kind == "drop_message" and slot >= at:
            event["fired"] = True
            return True
    return False


def _mailbox_bytes(num_users: int, param_bytes: int) -> Tuple[int, int]:
    """Per-direction mailbox slab sizes for a shard of ``num_users``.

    Requests carry at most one parameter vector per slot (the shared
    download) plus small decision lists; replies carry the ready-pool
    columns (~100 B/user), the per-user tick vector, and the slot's upload
    block (:class:`SlotExecReply`: a 48 B meta row per finisher, a delta
    block and, under a params-carrying merge rule, a params block) — in
    the worst slot every user of the shard finishes at once, each with a
    delta row and possibly an absolute row.  Sized for that worst slot but
    capped (a 1M-user shard would otherwise pin gigabytes of ``/dev/shm``);
    anything larger spills to a plain pickled frame, which is a per-slot
    slowdown, never an error.  Tests monkeypatch this to force the spill
    path.
    """
    request = max(1 << 20, 2 * param_bytes + (1 << 16))
    reply = max(1 << 22, num_users * (2 * param_bytes + 224) + (1 << 16))
    return request, min(reply, 1 << 28)


def _shard_worker_main(conn: Any, init_kwargs: Dict) -> None:
    """Worker-process entry point: build the shard lazily, serve commands.

    Transport: every message on the pipe is a byte frame.  Hot payloads
    live in the shared-memory mailbox and the frame is a small doorbell
    (see :mod:`repro.sim.shmplane`); a payload that exceeds the slab spills
    to a plain pickle, which is also the form of the two control frames
    (``__stop__`` and a worker traceback) so they never depend on the slab.
    Requests are decoded copy-on-receive, so the shard may retain any
    argument (e.g. downloaded parameter vectors) across slots.  The worker
    only ever ``close()``-es its mapping; the coordinator owns the segment
    name and unlinks it on every exit path.
    """
    fault_events: List[Dict] = list(init_kwargs.pop("fault_events", ()))
    mailbox_spec = init_kwargs.pop("mailbox")
    mailbox: Optional[ShardMailbox] = None
    shard: Optional[FleetShard] = None
    try:
        mailbox = ShardMailbox.attach(mailbox_spec)
        while True:
            try:
                # The worker has nothing to do until the coordinator speaks;
                # the coordinator side must never block unboundedly, but the
                # worker idles here by design and exits on EOF.
                frame = conn.recv_bytes()
            except EOFError:
                break
            method, args = mailbox.decode(frame)
            if method == "__stop__":
                break
            try:
                if shard is None:
                    shard = FleetShard.build(**init_kwargs)
                if fault_events and _maybe_inject_worker_fault(
                    fault_events, method, args
                ):
                    continue  # drop_message: consume the request, never reply
                result = getattr(shard, method)(*args)
                conn.send_bytes(
                    mailbox.encode(
                        ("ok", result), REPLY, copy=method not in _ZERO_COPY_REPLIES
                    )
                )
            except BaseException:
                conn.send_bytes(pickle.dumps(("error", traceback.format_exc())))
    finally:
        if mailbox is not None:
            mailbox.close()
        conn.close()


class ProcessShardHandle:
    """One shard living in its own worker process, driven over a pipe.

    ``post`` is asynchronous — the coordinator posts to every shard before
    waiting on any, so shard compute (fleet kernels, local training)
    overlaps across workers.

    All coordinator-side IPC is *bounded*: :meth:`wait` polls the pipe with
    capped exponentially-growing intervals against :data:`IPC_TIMEOUT_S`,
    watching the worker's liveness the whole time, and raises
    :class:`ShardDied` / :class:`ShardTimeout` instead of blocking forever on
    a dead or hung worker.  A worker that replied with a Python traceback still raises a
    plain ``RuntimeError`` — that is a deterministic bug, not a fault the
    supervisor should respawn through.

    Args:
        context: a ``multiprocessing`` context.
        init_kwargs: :meth:`FleetShard.build` arguments (plus an optional
            ``fault_events`` list the worker executes against itself).
        shard_index: position in the coordinator's handle list (carried on
            failures so the supervisor can report which shard was lost).
        mailbox_bytes: ``(request, reply)`` slab sizes of the shard's
            shared-memory mailbox (:func:`_mailbox_bytes`).
        timers: coordinator timers charged with ``ipc_send`` (encode +
            doorbell write) and ``ipc_recv`` (blocked on the shard's reply,
            which on a saturated machine includes the remote compute).
    """

    #: Each exchange is a pipe round trip: ``run_slot`` may carry the next
    #: slot's open back with it (:attr:`SlotExecReply.spec_open`).
    piggyback_open = True

    def __init__(
        self,
        context: Any,
        init_kwargs: Dict,
        mailbox_bytes: Tuple[int, int],
        timers: EngineTimers,
        shard_index: int = 0,
    ) -> None:
        self.shard_index = shard_index
        self.timers = timers
        #: Highest slot this shard was asked to execute; the supervisor
        #: consumes fault events up to here before a recovery replay.
        self.last_slot = -1
        self._mailbox = ShardMailbox.create(*mailbox_bytes)
        try:
            init_kwargs = dict(init_kwargs, mailbox=self._mailbox.spec())
            parent_conn, child_conn = context.Pipe()
            self._conn = parent_conn
            self._process = context.Process(
                target=_shard_worker_main, args=(child_conn, init_kwargs), daemon=True
            )
            self._process.start()
            child_conn.close()
        except BaseException:
            # The worker never attached (or never existed): the segment
            # must not outlive this constructor.
            self._destroy_mailbox()
            raise

    def post(self, method: str, *args: Any) -> None:
        if method in _SLOT_METHODS and args:
            self.last_slot = max(self.last_slot, int(args[0]))
        tick = self.timers.start()
        try:
            # copy=True: the shard retains request arguments (downloaded
            # parameter vectors, restore-state arrays) across slots, so it
            # must never hold views over the request slab.
            self._conn.send_bytes(
                self._mailbox.encode((method, args), REQUEST, copy=True)
            )
        except (BrokenPipeError, OSError) as exc:
            raise ShardDied(
                self.shard_index,
                f"shard {self.shard_index} worker pipe is closed "
                f"(exitcode={self._process.exitcode}): {exc}",
            ) from exc
        self.timers.stop("ipc_send", tick)

    def wait(self) -> Any:
        tick = self.timers.start()
        deadline = time.monotonic() + IPC_TIMEOUT_S  # reprolint: allow(wall-clock): IPC liveness deadline, never feeds sim state
        for interval in poll_intervals():
            if self._conn.poll(interval):
                break
            if not self._process.is_alive():
                # Drain a reply the worker may have flushed before dying.
                if self._conn.poll(0):
                    break
                raise ShardDied(
                    self.shard_index,
                    f"shard {self.shard_index} worker died "
                    f"(exitcode={self._process.exitcode})",
                )
            if time.monotonic() >= deadline:  # reprolint: allow(wall-clock): IPC liveness deadline, never feeds sim state
                raise ShardTimeout(
                    self.shard_index,
                    f"shard {self.shard_index} worker sent no reply within "
                    f"{IPC_TIMEOUT_S:.1f}s",
                )
        try:
            # poll() above guaranteed data (or EOF) is ready; this cannot block.
            frame = self._conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise ShardDied(
                self.shard_index,
                f"shard {self.shard_index} worker hung up mid-reply "
                f"(exitcode={self._process.exitcode}): {exc}",
            ) from exc
        status, value = self._mailbox.decode(frame)
        self.timers.stop("ipc_recv", tick)
        if status == "error":
            raise RuntimeError(f"shard worker failed:\n{value}")
        return value

    def kill(self) -> None:
        """Hard-stop the worker (supervisor recovery path; no handshake)."""
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - close on a broken pipe
            pass
        if self._process.is_alive():
            self._process.terminate()
        self._process.join(timeout=10)
        if self._process.is_alive():  # pragma: no cover - defensive teardown
            self._process.kill()
            self._process.join(timeout=5)
        self._destroy_mailbox()

    def close(self) -> None:
        try:
            self._conn.send_bytes(pickle.dumps(("__stop__", ())))
        except (BrokenPipeError, OSError):
            pass
        self._process.join(timeout=10)
        if self._process.is_alive():  # pragma: no cover - defensive teardown
            self._process.terminate()
            self._process.join(timeout=5)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - close on a broken pipe
            pass
        self._destroy_mailbox()

    def _destroy_mailbox(self) -> None:
        """Close and unlink the shm segment (owner side); idempotent."""
        self._mailbox.destroy()


# ---------------------------------------------------------------------------
# The shared slot loop
# ---------------------------------------------------------------------------


#: Slots certified in the first idle region of a stretch; each region that
#: uses all of its chunk doubles the next one, so a short stretch costs a
#: small forecast and a long one a few regions.
_IDLE_CHUNK = 16

#: Cap on the elements of one forecast's per-slot x per-user fold matrix.
_FORECAST_ELEMENTS = 1 << 16


def _split_users(users: Sequence[int], bounds: Sequence[Tuple[int, int]]) -> List[List[int]]:
    """Partition an ascending global user list along the shard bounds."""
    out: List[List[int]] = [[] for _ in bounds]
    if not users:
        return out
    his = [hi for _, hi in bounds]
    for user in users:
        out[bisect.bisect_right(his, user)].append(user)
    return out


def drive_fleet_loop(
    engine: Any,
    handles: Sequence[Any],
    bounds: Sequence[Tuple[int, int]],
    start: Optional["EngineCheckpoint"] = None,
    initial_eval: bool = True,
    checkpointer: Optional["Checkpointer"] = None,
) -> None:
    """Run ``engine``'s coordinator over one or many shards to the horizon.

    This is the five-step slot timeline of :mod:`repro.sim.engine`, staged
    so that per-user work executes shard-side and coupling-state work
    executes coordinator-side.  With a single inline shard it *is* the
    single-process engine; with process shards it is the sharded engine —
    same code, same operation order, bitwise-identical results.

    Resume: ``start`` is the checkpoint whose state the coordinator and the
    shards currently hold (``None``: a fresh run at slot 0), with
    ``initial_eval=False`` once the slot-0 evaluation is already folded in;
    the loop then continues exactly where the checkpoint was taken.
    Checkpointing: with a :class:`~repro.service.checkpoint.Checkpointer`,
    snapshots (:func:`snapshot_shards`) are taken at the top of due slots —
    before any of the slot's work — and fast-forwarded quiet regions are
    capped at the next due boundary.
    """
    core = engine.core
    config = engine.config
    timers = engine.timers
    policy = core.policy
    server = core.server
    trace = core.trace
    sync_mode = policy.aggregation is Aggregation.SYNC
    num_shards = len(handles)
    want_trace = engine.trace_level == "full"
    capture_users = want_trace and num_shards > 1

    stalled_fn: Optional[Callable[[], List[int]]] = None
    if engine._has_batteries:

        def _stalled_users() -> List[int]:
            for handle in handles:
                handle.post("stalled_users")
            stalled: List[int] = []
            for handle in handles:
                stalled.extend(handle.wait())
            return stalled

        stalled_fn = _stalled_users

    if start is None:
        # All users download the initial model and arrive at slot 0.
        slot, pending_arrivals, global_ready = 0, list(range(config.num_users)), -1
    else:
        slot, global_ready = start.slot, start.global_ready
        pending_arrivals = list(start.pending_arrivals)
    if initial_eval:
        core.evaluate(0)
    if checkpointer is not None:
        checkpointer.begin(slot)

    total_slots = config.total_slots
    # Shard upper bounds (exclusive), as searchsorted cut points for
    # splitting ascending decision arrays along shard ownership.
    shard_his = np.asarray([hi for _, hi in bounds[:-1]], dtype=np.int64)
    #: Per-shard speculative ``open_slot`` replies piggybacked on the last
    #: ``run_slot`` round or on a zero-advance ``quiet_try``; consumed (or
    #: superseded by an arrival-merging explicit open) at the next open.
    spec_opens: List[Optional[SlotOpenReply]] = [None] * num_shards
    #: Whether the policy can certify ready users idle (``idle_slots``).  Not
    #: with one process shard: its batch columns are views over the reply slab.
    certifies = (
        not sync_mode
        and type(policy).idle_slots is not SchedulingPolicy.idle_slots
        and (num_shards > 1 or not handles[0].piggyback_open)
    )
    #: The last slot's batch when the policy kept its whole ready pool idle.
    idle_batch: Optional[ObservationBatch] = None
    max_chunk = max(1, _FORECAST_ELEMENTS // config.num_users)
    idle_chunk = min(_IDLE_CHUNK, max_chunk)
    while slot < total_slots:
        if checkpointer is not None and checkpointer.due(slot):
            if any(spec is not None for spec in spec_opens):
                # A stop request raced the speculation window: the shards
                # already opened this slot non-uniformly, so a snapshot
                # here would not be a clean boundary.  Skip it; the due
                # check at the next boundary sees the stop flag before
                # speculation is allowed, so the deferral is one slot at
                # most.
                pass
            else:
                checkpointer.take(
                    snapshot_shards(
                        engine, handles, slot, list(pending_arrivals), global_ready
                    )
                )
        if not pending_arrivals:
            limit = None if checkpointer is None else checkpointer.limit(slot)
            region: Optional[Tuple[ObservationBatch, IdleForecast, List[np.ndarray]]] = None
            if global_ready > 0 and idle_batch is not None:
                # The ready pool may stay idle: let the policy certify a
                # chunk of slots ahead, and run them as one region.
                policy_tick = timers.start()
                span = min(idle_chunk, total_slots - slot, limit or total_slots)
                forecast = core.idle_forecast(idle_batch, slot, span)
                certified = policy.idle_slots(idle_batch, forecast)
                timers.stop("policy", policy_tick)
                if certified:
                    limit = certified
                    pools = np.split(
                        idle_batch.user_ids,
                        np.searchsorted(idle_batch.user_ids, shard_his),
                    )
                    region = (idle_batch, forecast, pools)
            if global_ready == 0 or region is not None:
                advanced, ready_after, spec_opens = _fast_forward_epoch(
                    core, handles, config, timers, want_trace, capture_users, slot,
                    num_shards, limit, region,
                )
                if advanced:
                    global_ready = ready_after
                    if region is not None and advanced == span:
                        idle_chunk = min(2 * idle_chunk, max_chunk)
                    slot += advanced
                    continue
        time_s = slot * config.slot_seconds

        # 1+2. Applications and arrivals -> ready pool.  Downloads are
        # coordinator work (server version bookkeeping, pinned bases) and
        # run in ascending global user order; the per-user state lands in
        # the owning shard.
        arriving_by_shard = _split_users(pending_arrivals, bounds)
        num_arrivals = len(pending_arrivals)
        pending_arrivals = []
        posted = [False] * num_shards
        #: Per shard, the download its re-armed finishers await (rides ``run_slot``).
        downloads: List[Optional[Tuple[int, np.ndarray]]] = [None] * num_shards
        for index, (handle, arriving) in enumerate(zip(handles, arriving_by_shard)):
            version = params = None
            if arriving:
                coupling_tick = timers.start()
                version, params = core.record_download(arriving)
                timers.stop("coupling", coupling_tick)
            if spec_opens[index] is not None and (not arriving or not sync_mode):
                # The piggybacked open already covers this shard.  Under
                # asynchronous aggregation its arrivals are exactly its own
                # last-slot finishers, which that open re-armed.
                if arriving:
                    downloads[index] = (version, params)
                continue
            handle.post("open_slot", slot, arriving, version, params)
            posted[index] = True
        open_replies = [
            handle.wait() if posted[index] else spec_opens[index]
            for index, handle in enumerate(handles)
        ]
        spec_opens = [None] * num_shards
        payloads = [reply.payload for reply in open_replies]
        total_ready = sum(len(payload) for payload in payloads)
        num_training = sum(reply.num_training for reply in open_replies)

        context = SlotContext(
            slot=slot,
            slot_seconds=config.slot_seconds,
            num_arrivals=num_arrivals,
            num_ready=total_ready,
            num_training=num_training,
            num_users=config.num_users,
        )
        policy_tick = timers.start()
        policy.begin_slot(context)
        timers.stop("policy", policy_tick)

        # 2b. Batched decisions on the concatenated global ready pool.
        num_scheduled = 0
        scheduled_by_shard: List[List[int]] = [[] for _ in handles]
        idle_by_shard: List[List[int]] = [[] for _ in handles]
        if total_ready:
            merge_tick = timers.start()
            batch = build_observation_batch(
                slot, config.slot_seconds, payloads, server, core.gaps
            )
            timers.stop("merge", merge_tick)
            policy_tick = timers.start()
            schedule = policy.decide_all(batch)
            chosen = np.flatnonzero(schedule)
            num_scheduled = len(chosen)
            scheduled_users = batch.user_ids[chosen]
            if num_scheduled:
                durations = batch.training_duration_slots[chosen].tolist()
                server.register_inflight_block(
                    scheduled_users.tolist(),
                    [(slot + duration) * config.slot_seconds for duration in durations],
                )
                # The Eq. (4) gap at schedule time uses the same
                # sequentially-coupled lag the policy decided with.
                core.gaps[scheduled_users] = [
                    gradient_gap(*terms)
                    for terms in zip(
                        batch.momentum_norm[chosen].tolist(),
                        batch.learning_rate[chosen].tolist(),
                        batch.momentum_coeff[chosen].tolist(),
                        scheduled_lags(batch, chosen),
                    )
                ]
                corun = int(np.count_nonzero(batch.app_running[chosen]))
                trace.decisions["schedule"] += num_scheduled
                trace.corun_jobs += corun
                trace.background_jobs += num_scheduled - corun
            idle_users = batch.user_ids[~schedule]
            core.gaps[idle_users] += config.epsilon
            trace.decisions["idle"] += len(idle_users)
            if num_shards == 1:
                scheduled_by_shard, idle_by_shard = [scheduled_users], [idle_users]
            else:
                # Both selections are ascending (user_ids is), so one
                # searchsorted against the shard upper bounds replaces a
                # per-user bisect — and the slices ship as arrays, which
                # pickle as one buffer instead of hundreds of ints.
                scheduled_by_shard = np.split(
                    scheduled_users, np.searchsorted(scheduled_users, shard_his)
                )
                idle_by_shard = np.split(
                    idle_users, np.searchsorted(idle_users, shard_his)
                )
            timers.stop("policy", policy_tick)

        # 3. Advance every shard by one slot; each finisher runs its local
        # round shard-side and the uploads are applied here in ascending
        # global user order.
        tick_wanted = want_trace and slot % config.trace_interval_slots == 0
        # Process shards may open the next slot inside this same round trip
        # — except across a checkpoint boundary, where the snapshot must
        # capture a uniform not-yet-opened state.  A shard with finishers
        # re-arms them in that open under asynchronous aggregation (their
        # arrival keeps the next slot off the fast-forward path); on ready
        # users alone it opens only if the policy cannot certify the next
        # slot idle (a region opens nothing).
        idle_batch = batch if certifies and total_ready and not num_scheduled else None
        idle_chunk = min(_IDLE_CHUNK, max_chunk)
        open_ahead = slot + 1 < total_slots and not (
            checkpointer is not None and checkpointer.due(slot + 1)
        )
        for index, handle in enumerate(handles):
            ahead = open_ahead and handle.piggyback_open
            handle.post(
                "run_slot", slot, scheduled_by_shard[index], idle_by_shard[index],
                tick_wanted, capture_users, ahead and idle_batch is None,
                ahead and not sync_mode, downloads[index],
            )
        exec_replies = [handle.wait() for handle in handles]
        spec_opens = [reply.spec_open for reply in exec_replies]
        # Shard order == ascending user order: the slot's upload streams.
        streams = [reply.uploads for reply in exec_replies]
        uploaded = [user for stream in streams for user in stream.users]
        if sync_mode:
            for stream in streams:
                for user, update in zip(stream.users, stream.collect()):
                    core.buffer_sync_upload(user, update)
        elif uploaded:
            coupling_tick = timers.start()
            training_s = timers.seconds["training"]
            core.apply_async_update(
                slot, uploaded, chain.from_iterable(stream.release() for stream in streams)
            )
            # The blocks the merge trained are ``training`` time only.
            timers.stop("coupling", coupling_tick, timers.seconds["training"] - training_s)
            core.gaps[uploaded] = 0.0
            pending_arrivals.extend(uploaded)

        if sync_mode:
            released = core.maybe_complete_sync_round(slot, stalled_fn)
            if released:
                core.gaps[np.asarray(released, dtype=np.int64)] = 0.0
            pending_arrivals.extend(released)

        # 4+5. Close the slot: queues, traces, evaluation.
        gap_sum = core.total_gap()
        policy_tick = timers.start()
        policy.end_slot(context, num_scheduled, gap_sum)
        timers.stop("policy", policy_tick)

        if tick_wanted:
            queue_length = getattr(getattr(policy, "task_queue", None), "length", 0.0)
            virtual_length = getattr(
                getattr(policy, "virtual_queue", None), "length", 0.0
            )
            if num_shards == 1:
                cumulative_j = exec_replies[0].tick_total
            else:
                merge_tick = timers.start()
                cumulative_j = ordered_sum(
                    np.concatenate([reply.tick_user_totals for reply in exec_replies])
                )
                timers.stop("merge", merge_tick)
            trace.maybe_record_slot(
                SlotSample(
                    slot=slot,
                    time_s=time_s,
                    cumulative_energy_j=cumulative_j,
                    queue_length=queue_length,
                    virtual_queue_length=virtual_length,
                    gap_sum=gap_sum,
                    num_training=context.num_training,
                    num_ready=context.num_ready,
                )
            )
            trace.record_user_gaps(time_s, core.gaps.tolist())
        if slot > 0 and slot % config.eval_interval_slots == 0:
            core.evaluate(slot)
        global_ready = sum(reply.next_ready for reply in exec_replies)
        slot += 1

    core.evaluate(total_slots)


def _fast_forward_epoch(
    core: CouplingCore,
    handles: Sequence[Any],
    config: SimulationConfig,
    timers: EngineTimers,
    want_trace: bool,
    capture_users: bool,
    slot: int,
    num_shards: int,
    limit: Optional[int] = None,
    idle: Optional[Tuple[ObservationBatch, IdleForecast, List[np.ndarray]]] = None,
) -> Tuple[int, int, List[Optional[SlotOpenReply]]]:
    """Advance all shards through the quiet slots starting at ``slot``.

    A region is **quiet** (``idle is None``: nobody is ready) or **certified
    idle** (``idle = (batch, forecast, pools)``: the ready pool ``batch``,
    which the policy's :meth:`~SchedulingPolicy.idle_slots` certified idle
    for ``limit`` slots of ``forecast``, split per shard in ``pools``).

    Returns ``(advanced, global_ready, spec_opens)``.  ``advanced == 0``
    means some shard has an event due this slot and the caller falls through
    to the normal slot path: nothing is committed (each shard rolls its try
    back at its next request), ``global_ready`` is meaningless, and
    ``spec_opens`` holds the slot's opens of the process shards that
    advanced nothing.  The global advance is the minimum of the per-shard
    bounds (each shard's event horizon, battery flips included), committed
    in lock-step via the shards' two-phase try/commit; the coordinator then
    backfills, per slot, what the slot path would have written: the idle
    decisions (:meth:`~SchedulingPolicy.record_idle`, the trace counter),
    the pool's gap increments, the policy queues, the trace samples and the
    evaluation ticks.

    During a region no synchronous round can complete either: the upload
    buffer is frozen (no training finishes) and the stalled-user set cannot
    grow, so skipping the per-slot round check is exact.
    """
    two_phase = num_shards > 1
    pools: Sequence[Sequence[int]] = idle[2] if idle is not None else [()] * num_shards
    for handle, pool in zip(handles, pools):
        handle.post(
            "quiet_try", slot, want_trace, capture_users, two_phase, limit, pool,
            handle.piggyback_open,
        )
    tries = [handle.wait() for handle in handles]
    advanced = min(reply.advanced for reply in tries)
    if advanced == 0:
        return 0, -1, [reply.spec_open for reply in tries]
    num_training = sum(reply.num_training for reply in tries)
    for handle in handles:
        handle.post("quiet_commit", advanced)
    commits = [handle.wait() for handle in handles]
    global_ready = sum(reply.next_ready for reply in commits)

    policy = core.policy
    tick_offsets = commits[0].tick_offsets
    # Per slot: G(t); per tick: every user's gap.
    if idle is None:
        num_ready = 0
        gap_sums = [core.total_gap()] * advanced
        tick_gaps = [core.gaps.tolist()] * len(tick_offsets) if tick_offsets else []
    else:
        batch, forecast, _ = idle
        users = batch.user_ids
        num_ready = len(users)
        gap_sums = forecast.gap_sums[:advanced].tolist()
        tick_gaps = []
        for offset in tick_offsets:
            core.gaps[users] = forecast.gaps[offset + 1]
            tick_gaps.append(core.gaps.tolist())
        core.gaps[users] = forecast.gaps[advanced]
        core.trace.decisions["idle"] += num_ready * advanced
        policy.record_idle(batch, slot, advanced)

    # Policy bookkeeping for the skipped slots.  The online policy's slot
    # hooks reduce to the exact multi-slot queue recursions; policies that
    # inherit the no-op base hooks need nothing; anything else gets its
    # begin/end hooks invoked per slot with the contexts the slot-by-slot
    # path would have passed (e.g. the offline policy's window planner).
    policy_tick = timers.start()
    tick_queue: Optional[List[Tuple[float, float]]] = None
    if type(policy) is OnlinePolicy:
        queue_length = policy.task_queue.advance_idle(advanced)
        if idle is None:  # a constant G: the fixpoint short-cut applies
            virtual_values = policy.virtual_queue.advance_constant(gap_sums[0], advanced)
        else:
            virtual_values = policy.virtual_queue.advance_sequence(gap_sums)
        tick_queue = [
            (queue_length, virtual_values[offset]) for offset in tick_offsets
        ]
    else:
        begin_hook = type(policy).begin_slot is not SchedulingPolicy.begin_slot
        end_hook = type(policy).end_slot is not SchedulingPolicy.end_slot
        if begin_hook or end_hook:
            tick_set = set(tick_offsets)
            tick_queue = []
            for offset in range(advanced):
                context = SlotContext(
                    slot=slot + offset,
                    slot_seconds=config.slot_seconds,
                    num_arrivals=0,
                    num_ready=num_ready,
                    num_training=num_training,
                    num_users=config.num_users,
                )
                if begin_hook:
                    policy.begin_slot(context)
                if end_hook:
                    policy.end_slot(context, 0, gap_sums[offset])
                if offset in tick_set:
                    tick_queue.append(
                        (
                            getattr(
                                getattr(policy, "task_queue", None), "length", 0.0
                            ),
                            getattr(
                                getattr(policy, "virtual_queue", None), "length", 0.0
                            ),
                        )
                    )
    timers.stop("policy", policy_tick)

    # Trace backfill: the sampled slots inside the region carry the slot's
    # gap sum, the constant ready/training counts, the replayed queue
    # backlogs and the exact cumulative energy captured by the shard kernels
    # (folded across shards in global user order when partitioned).
    if tick_offsets:
        for index, offset in enumerate(tick_offsets):
            sample_slot = slot + offset
            time_s = sample_slot * config.slot_seconds
            if tick_queue is not None:
                queue_length, virtual_length = tick_queue[index]
            else:
                queue_length = getattr(
                    getattr(policy, "task_queue", None), "length", 0.0
                )
                virtual_length = getattr(
                    getattr(policy, "virtual_queue", None), "length", 0.0
                )
            if num_shards == 1:
                cumulative_j = commits[0].tick_totals[index]
            else:
                merge_tick = timers.start()
                cumulative_j = ordered_sum(
                    np.concatenate([commit.tick_user_totals[index] for commit in commits])
                )
                timers.stop("merge", merge_tick)
            core.trace.maybe_record_slot(
                SlotSample(
                    slot=sample_slot,
                    time_s=time_s,
                    cumulative_energy_j=cumulative_j,
                    queue_length=queue_length,
                    virtual_queue_length=virtual_length,
                    gap_sum=gap_sums[offset],
                    num_training=num_training,
                    num_ready=num_ready,
                )
            )
            core.trace.record_user_gaps(time_s, tick_gaps[index])

    # Evaluation ticks: the global model is frozen across the region, so the
    # version-keyed cache in CouplingCore.evaluate makes each replay a record.
    interval = config.eval_interval_slots
    first = ((slot + interval - 1) // interval) * interval
    if first == 0:
        first = interval
    for eval_slot in range(first, slot + advanced, interval):
        core.evaluate(eval_slot)
    return advanced, global_ready, [None] * num_shards


# ---------------------------------------------------------------------------
# Supervision: user checkpoints double as recovery points
# ---------------------------------------------------------------------------


class _SupervisedCheckpointer:
    """The caller's checkpointer, remembering each snapshot it takes.

    Supervision keeps no snapshot cadence of its own: the snapshots the
    caller's :class:`~repro.service.checkpoint.Checkpointer` takes, and the
    eager pre-loop snapshot of a fresh run, are the points a failed run
    replays from.  ``begin``/``due``/``limit`` are the caller's; without a
    caller's checkpointer the object only holds the pre-loop snapshot and
    the loop runs with no checkpointer at all.
    """

    def __init__(self, user: Optional["Checkpointer"]) -> None:
        self.user = user
        #: Latest snapshot paired with whether the initial slot-0 evaluation
        #: is already folded into its coordinator state (``False`` for the
        #: eager pre-loop snapshot of a fresh run, which replays with
        #: ``initial_eval=True``).
        self.latest: Optional[Tuple["EngineCheckpoint", bool]] = None

    def remember(self, checkpoint: "EngineCheckpoint", eval_done: bool) -> None:
        self.latest = (checkpoint, eval_done)

    def begin(self, slot: int) -> None:
        self.user.begin(slot)

    def due(self, slot: int) -> bool:
        return self.user.due(slot)

    def limit(self, slot: int) -> Optional[int]:
        return self.user.limit(slot)

    def take(self, checkpoint: "EngineCheckpoint") -> None:
        # In-loop snapshots are taken at the top of a slot, after the run's
        # initial evaluation — replaying from one must not re-evaluate.
        self.remember(checkpoint, eval_done=True)
        # May raise RunInterrupted (stop requested) or any sink error; both
        # unwind the run, which is the caller's contract.
        self.user.take(checkpoint)


# ---------------------------------------------------------------------------
# Driving live shard handles (shared by both engines)
# ---------------------------------------------------------------------------


def restore_shards(
    engine: Any,
    handles: Sequence[Any],
    bounds: Sequence[Tuple[int, int]],
    checkpoint: "EngineCheckpoint",
) -> None:
    """Load a checkpoint's per-user state into live shard handles.

    ``engine``'s core must already hold the checkpoint's coordinator state:
    each user's training base is re-bound from the bases pinned there.
    """
    from repro.service.checkpoint import reslice

    pinned = engine.core.pinned_bases()
    for handle, piece in zip(handles, reslice(checkpoint.slices, bounds)):
        lo, hi = piece["lo"], piece["hi"]
        bases = {user: params for user, params in pinned.items() if lo <= user < hi}
        handle.post("restore_state", piece, bases)
    for handle in handles:
        handle.wait()


def snapshot_shards(
    engine: Any,
    handles: Sequence[Any],
    slot: int,
    pending_arrivals: List[int],
    global_ready: int,
) -> "EngineCheckpoint":
    """A full checkpoint of ``engine``: its live coordinator plus the
    per-user slices its shard handles report."""
    from repro.service.checkpoint import (
        CHECKPOINT_FORMAT_VERSION,
        CoordinatorState,
        EngineCheckpoint,
    )

    # Coordinator first, so its pickling transient never stacks on top of
    # the slice copies an in-process shard hands back at once.
    coordinator = CoordinatorState.capture(engine.core, engine.timers)
    for handle in handles:
        handle.post("checkpoint_state")
    return EngineCheckpoint(
        format_version=CHECKPOINT_FORMAT_VERSION,
        slot=slot,
        pending_arrivals=pending_arrivals,
        global_ready=global_ready,
        config=engine.config,
        trace_level=engine.trace_level,
        coordinator=coordinator,
        slices=[handle.wait() for handle in handles],
    )


# ---------------------------------------------------------------------------
# The sharded engine
# ---------------------------------------------------------------------------


class ShardedEngine(Coordinator):
    """Simulate the federated system with the population sharded across processes.

    Drop-in sibling of :class:`~repro.sim.engine.SimulationEngine`: the
    constructor takes the same configuration and policy, ``run()`` returns
    the same :class:`~repro.sim.engine.SimulationResult`, and for any
    ``shards`` the result is bitwise identical to the single-process run
    (see the module docstring for the contract and ``tests/test_shard.py``
    for the enforcement).  Both are a :class:`~repro.sim.engine.Coordinator`
    around :func:`drive_fleet_loop`; this class adds
    only what is about processes — spawning and restoring the handles, the
    supervisor loop and the accountant merge.

    The coordinator process owns the coupling state (parameter server,
    policy queues, gaps, sync quorum, transfer count, traces,
    evaluation); each worker process rebuilds its contiguous population
    slice from the configuration (same RNG streams as a full build) and runs
    the per-user kernels — including the actual NumPy local training, which
    is where multi-core machines gain real parallelism.

    Args:
        config: run configuration (the full population).
        policy: scheduling policy (coordinator-resident).
        measurement_table: optional Table II/III calibration override
            (shipped to workers; must pickle).
        shards: number of worker processes (clamped to ``num_users``).
        profile: collect per-subsystem wall-clock shares on the
            coordinator; each worker process's own training seconds are
            reported beside them (``EngineTimers.worker_training_s``), not
            added — the coordinator spent that time inside ``ipc_recv``.
        trace_level: telemetry volume (see
            :class:`~repro.sim.engine.SimulationEngine`); ``summary`` is the
            intended setting for megafleet populations.
        start_method: ``multiprocessing`` start method; defaults to
            :func:`default_start_method`.
        inline: run the shards in-process through
            :class:`InlineShardHandle` instead of worker processes.  Same
            staged protocol, same results; useful for tests that exercise
            the sharded data path without process startup cost.
        fault_injector: optional :class:`~repro.faults.plan.FaultInjector`
            whose engine events are shipped to the worker processes (chaos
            testing; see ``docs/faults.md``).  Inline shards never inject.
    """

    def __init__(
        self,
        config: SimulationConfig,
        policy: SchedulingPolicy,
        measurement_table: Optional[MeasurementTable] = None,
        shards: int = 2,
        profile: bool = False,
        trace_level: str = "full",
        start_method: Optional[str] = None,
        inline: bool = False,
        fault_injector: Optional["FaultInjector"] = None,
    ) -> None:
        self.build_coordinator(config, policy, measurement_table, profile, trace_level)
        self.bounds = shard_bounds(config.num_users, shards)
        self.start_method = start_method or default_start_method()
        self.inline = bool(inline)
        self.fault_injector = fault_injector

    @classmethod
    def restore(
        cls, checkpoint: "EngineCheckpoint", *, shards: Optional[int] = None, **kwargs: Any
    ) -> "ShardedEngine":
        """Rebuild a sharded engine from an
        :class:`~repro.service.checkpoint.EngineCheckpoint`.

        ``shards`` defaults to the layout that wrote the checkpoint; any
        other count works too — per-user slice state is re-partitioned
        contiguously (:func:`repro.service.checkpoint.reslice`), and every
        headline metric of the resumed run stays bitwise-identical.
        ``kwargs`` are the constructor keywords a checkpoint does not carry
        (everything but the configuration, the policy and ``trace_level``).
        """
        return restore_engine(
            cls,
            checkpoint,
            shards=len(checkpoint.slices) if shards is None else shards,
            **kwargs,
        )

    def _spawn_handles(self, context: Any, nested: bool) -> List[Any]:
        """Start one handle per shard bound (inline or worker process)."""
        handles: List[Any] = []
        for index, (lo, hi) in enumerate(self.bounds):
            init_kwargs = dict(
                config=self.config,
                lo=lo,
                hi=hi,
                arrivals=self.arrivals.slice_users(lo, hi),
                measurement_table=self.table,
            )
            if nested:
                # In-process training is coordinator wall: its ``training`` bucket.
                shard = FleetShard.build(**init_kwargs, timers=self.timers)
                handles.append(InlineShardHandle(shard))
            else:
                if self.fault_injector is not None:
                    events = self.fault_injector.worker_events(index)
                    if events:
                        init_kwargs["fault_events"] = events
                handles.append(
                    ProcessShardHandle(
                        context,
                        init_kwargs,
                        _mailbox_bytes(
                            hi - lo, int(self.server.global_params().nbytes)
                        ),
                        shard_index=index,
                        timers=self.timers,
                    )
                )
        return handles

    def run(self, checkpointer: Optional["Checkpointer"] = None) -> SimulationResult:
        """Run the sharded simulation and return its (merged) result.

        Supervised: when a shard worker dies or stops answering within
        :data:`IPC_TIMEOUT_S`, the supervisor kills the remaining workers,
        rolls the coordinator back to the latest recovery snapshot (the
        pre-loop snapshot or the last checkpoint ``checkpointer`` took,
        whichever is newer), respawns the workers, restores their slices,
        and replays forward; the :data:`MAX_RESPAWNS` + 1st failure of one
        run is re-raised.  Replay re-executes the same deterministic slot
        timeline, so the recovered result is bitwise-identical to the
        fault-free run.  Worker replies carrying a Python traceback are
        deterministic bugs, not faults — they raise ``RuntimeError`` and
        are never retried.
        """
        self.begin_run()
        total_tick = self.timers.start()
        context = multiprocessing.get_context(self.start_method)
        # Inside an ExperimentSuite pool worker (daemonic), children are
        # forbidden — run the shards inline instead.  Results are identical
        # either way (the handles drive the same FleetShard methods); only
        # the process isolation is lost, which a pool worker already lacks.
        nested = self.inline or multiprocessing.current_process().daemon
        supervised = _SupervisedCheckpointer(checkpointer)
        handles: List[Any] = []
        respawns = 0
        # The checkpoint whose state coordinator and shards currently hold.
        start = self._resume
        initial_eval = start is None
        try:
            handles = self._spawn_handles(context, nested)
            if start is not None:
                restore_shards(self, handles, self.bounds, start)
                supervised.remember(start, eval_done=True)
            elif not nested:
                # Eager pre-loop snapshot: without one, the first failure of
                # a fresh, never-checkpointed run would be unrecoverable.
                # It pre-dates the initial evaluation, so a replay from it
                # re-runs that evaluation.
                start = snapshot_shards(
                    self, handles, 0, list(range(self.config.num_users)), -1
                )
                supervised.remember(start, eval_done=False)
            while True:
                try:
                    drive_fleet_loop(
                        self,
                        handles,
                        self.bounds,
                        start,
                        initial_eval,
                        None if checkpointer is None else supervised,
                    )
                    break
                except ShardFailure:
                    respawns += 1
                    latest = supervised.latest
                    if respawns > MAX_RESPAWNS or latest is None:
                        raise
                    # Recovery replays the window since the snapshot; the
                    # fault events inside it already did their damage and
                    # must not re-fire on the respawned workers.
                    if self.fault_injector is not None:
                        self.fault_injector.consume_engine_through(
                            max(handle.last_slot for handle in handles)
                        )
                    for handle in handles:
                        handle.kill()
                    handles = []
                    time.sleep(_RESPAWN_BACKOFF.delay_s(respawns))
                    start, eval_done = latest
                    initial_eval = not eval_done
                    install_coordinator(self, start.coordinator.materialize())
                    handles = self._spawn_handles(context, nested)
                    restore_shards(self, handles, self.bounds, start)
            for handle in handles:
                handle.post("finalize")
            finals = [handle.wait() for handle in handles]
        finally:
            for handle in handles:
                handle.close()

        merge_tick = self.timers.start()
        accountant = FleetEnergyAccountant.merged([final.accountant for final in finals])
        self.timers.stop("merge", merge_tick)
        self.timers.stop_total(total_tick)
        return self.assemble_result(
            accountant,
            [soc for final in finals for soc in final.final_battery_soc],
            [] if nested else [final.training_seconds for final in finals],
            [] if nested else [final.blas_threads for final in finals],
            [final.fleet_plane for final in finals],
        )

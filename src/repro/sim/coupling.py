"""Coordinator-side coupling state of the federated system.

Section V's central observation is that the online controller "admits a
fully distributed implementation": the *only* state that couples users is
what flows through the parameter server — the global model and its version,
the in-flight set behind the lag estimates ``l_{d_i}``, the broadcast
backlogs ``Q(t)`` / ``H(t)``, and the per-user Eq. (12) gradient gaps whose
sum ``G(t)`` drives the virtual queue.  Everything else (device power and
thermal state, batteries, application churn, local training) is per-user and
partitions cleanly.

:class:`CouplingCore` makes that boundary a first-class object: it owns
exactly the coupling state plus its bookkeeping (transport accounting,
traces, evaluation), and exposes the staged kernels the slot loop needs —
download registration, asynchronous upload application in deterministic user
order, synchronous-round quorum completion, the gap-sum fold and the
version-cached evaluation.  The single-process fleet engine and the sharded
engine (:mod:`repro.sim.shard`) drive the *same* core through the *same*
slot loop; only the residence of the per-user fleet state differs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.columns import ordered_sum
from repro.comm.transport import ModelTransport
from repro.core.policies import IdleForecast, ObservationBatch, SchedulingPolicy
from repro.fl.client import LocalUpdate
from repro.fl.metrics import AccuracyTracker, evaluate_model
from repro.fl.server import ParameterServer
from repro.sim.config import SimulationConfig
from repro.sim.timers import EngineTimers
from repro.sim.trace import SimulationTrace

__all__ = ["CouplingCore"]


class CouplingCore:
    """Owner of the cross-user coupling state and its staged slot kernels.

    One instance rides one simulation run.  The engine (or the sharded
    coordinator) constructs it with the already-built shared components and
    then calls the kernels in slot order; all methods mutate only
    coordinator-resident state, so the same code is correct whether the
    fleet lives in-process or across worker processes.

    Attributes:
        gaps: the per-user Eq. (12) gradient-gap array ``g_i`` (global user
            ids).  Scheduled users take the Eq. (4) estimate, idling users
            accumulate ``epsilon``, applied uploads reset to zero; the
            left-to-right fold :meth:`total_gap` is the ``G(t)`` the virtual
            queue consumes.
        sync_buffer: uploads of the current synchronous round, by user id.
    """

    #: The mutable coupling state a checkpoint must carry.  Kept in lockstep
    #: with :data:`repro.service.checkpoint.CoordinatorState._FIELDS` (the
    #: snapshot is taken externally by ``CoordinatorState.capture``);
    #: ``tests/test_reprolint.py`` asserts the two stay aligned, and the
    #: checkpoint-coverage lint rule makes any new ``__init__`` attribute
    #: either join this tuple or declare itself ``# reprolint: static``.
    _CHECKPOINT_ATTRS = (
        "policy",
        "server",
        "transport",
        "trace",
        "accuracy",
        "gaps",
        "sync_buffer",
        "_eval_cache",
        "_pinned_base",
    )

    def __init__(
        self,
        config: SimulationConfig,
        policy: SchedulingPolicy,
        server: ParameterServer,
        transport: ModelTransport,
        trace: SimulationTrace,
        accuracy: AccuracyTracker,
        eval_model: Any,
        dataset: Any,
        timers: EngineTimers,
    ) -> None:
        self.config = config  # reprolint: static
        self.policy = policy
        self.server = server
        self.transport = transport
        self.trace = trace
        self.accuracy = accuracy
        self.eval_model = eval_model  # reprolint: static
        self.dataset = dataset  # reprolint: static
        self.timers = timers  # reprolint: static
        self.gaps = np.zeros(config.num_users)
        self.sync_buffer: Dict[int, LocalUpdate] = {}
        self._eval_cache: Optional[Tuple[int, float, float]] = None
        #: Base parameters pinned per user between download and upload, so
        #: the realised Eq. (2) gap can be measured at upload time without
        #: shipping parameter vectors back from the shards.  Entries are
        #: zero-copy views of the server's historical vectors (the server
        #: rebinds, never mutates), exactly what the fleet state holds.
        self._pinned_base: Dict[int, np.ndarray] = {}

    # -- checkpointing -----------------------------------------------------------

    def checkpoint_unit(self) -> Tuple[tuple, Dict[int, np.ndarray]]:
        """The mutable coupling state, ordered as :data:`_CHECKPOINT_ATTRS`,
        with the pinned bases factored out by model version.

        The single gather point for checkpoint capture.  The unit carries
        ``{user: version}`` in the pinned-base position; the second value
        maps each pinned version to its vector, uncopied — the server never
        mutates a historical vector, so a version names its content.
        :class:`repro.service.checkpoint.CoordinatorState` pickles the unit
        in one ``dumps`` call so cross-object aliases (the update log the
        server writes and the trace reads) stay shared in every restore.
        """
        versions = {
            user: self.server.downloaded_version(user) for user in self._pinned_base
        }
        vectors = {versions[user]: base for user, base in self._pinned_base.items()}
        unit = tuple(
            versions if attr == "_pinned_base" else getattr(self, attr)
            for attr in self._CHECKPOINT_ATTRS
        )
        return unit, vectors

    def load_checkpoint_unit(self, unit: tuple) -> None:
        """Bind a restored checkpoint unit back in (``{user: vector}`` in
        the pinned-base position again)."""
        if len(unit) != len(self._CHECKPOINT_ATTRS):
            raise ValueError(
                f"checkpoint unit has {len(unit)} entries; expected "
                f"{len(self._CHECKPOINT_ATTRS)}"
            )
        for attr, value in zip(self._CHECKPOINT_ATTRS, unit):
            setattr(self, attr, value)

    # -- downloads ---------------------------------------------------------------

    def record_download(self, users: Sequence[int], time_s: float) -> Tuple[int, np.ndarray]:
        """``users`` download the current model: server + transport bookkeeping.

        Returns the ``(version, params)`` pair the fleet stores as their
        training base (one shared read-only view).  ``users`` are one
        shard's arrivals of the slot, ascending, and a slot's blocks follow
        in ascending order too — the transport's network process draws from
        one stream.
        """
        version = self.server.version
        params = self.server.download_block(users)
        self._pinned_base.update(dict.fromkeys(users, params))
        self.transport.transfer_block(users, "download", time_s)
        return version, params

    def pinned_bases(self) -> Dict[int, np.ndarray]:
        """Every pinned training base, by user (pinned at download)."""
        return self._pinned_base

    # -- gap dynamics ------------------------------------------------------------

    def total_gap(self) -> float:
        """The per-slot gap sum ``G(t)`` feeding the virtual queue.

        Summed left-to-right in ascending user order — the order in which
        the per-user reference loop's gap tracker is populated (every user is
        decided in slot 0), so every execution mode feeds the virtual queue
        the same ``float``.
        """
        return ordered_sum(self.gaps)

    def idle_forecast(self, batch: ObservationBatch, slot: int, slots: int) -> IdleForecast:
        """What the slot path would compute in ``slots`` slots from ``slot``
        on that keep ``batch``'s pool idle: gaps ``epsilon`` on per slot (an
        accumulate down the slots), ``G(t)`` per slot (an accumulate along
        each row, from the fold of the users ahead of the pool) and the
        lags of the frozen in-flight set at each slot's start."""
        pool = batch.user_ids
        steps = np.full((slots + 1, len(pool)), self.config.epsilon)
        steps[0] = self.gaps[pool]
        gaps = np.add.accumulate(steps, axis=0)
        first = int(pool[0])
        folds = np.empty((slots, len(self.gaps) - first + 1))
        folds[:, 0] = ordered_sum(self.gaps[:first])
        folds[:, 1:] = self.gaps[first:]
        folds[:, 1 + pool - first] = gaps[1:]
        gap_sums = np.add.accumulate(folds, axis=1)[:, -1] + 0.0
        now_s = (slot + np.arange(slots)) * batch.slot_seconds
        lags = self.server.estimate_lags(
            pool, now_s[:, None], batch.training_duration_slots * batch.slot_seconds
        )
        return IdleForecast(slot=slot, lags=lags, gaps=gaps, gap_sums=gap_sums)

    # -- uploads -----------------------------------------------------------------

    def apply_async_update(
        self,
        slot: int,
        users: Sequence[int],
        updates: Sequence[LocalUpdate],
    ) -> List[float]:
        """Apply the (already trained) uploads that complete in ``slot``.

        ``users`` and ``updates`` are aligned, one entry per upload,
        ascending by user — the deterministic order that makes the server's
        accumulation commutative *in effect*: any shard layout applies the
        same updates in the same sequence, so the global model evolves bit
        for bit identically.  Returns the realised Eq. (2) gradient gap of
        each, measured against the base pinned at the user's download.
        """
        time_s = slot * self.config.slot_seconds
        bases = [self._pinned_base.pop(user) for user in users]
        rows = self.server.async_update_block(updates, bases, time_s)
        self.transport.transfer_block(users, "upload", time_s)
        if type(self.policy).notify_update_applied is not SchedulingPolicy.notify_update_applied:
            for user, row in zip(users, rows):  # only a policy that listens
                self.policy.notify_update_applied(user, row[3], row[4])
        return [row[4] for row in rows]

    def buffer_sync_upload(self, user: int, update: LocalUpdate) -> None:
        """Park a synchronous-round upload until the quorum completes."""
        self.sync_buffer[user] = update
        self.server.unregister_inflight(user)

    def maybe_complete_sync_round(
        self, slot: int, stalled_fn: Optional[Callable[[], List[int]]] = None
    ) -> List[int]:
        """Aggregate the synchronous round once the participating quorum uploaded.

        The round completes when every user *able to participate* has
        uploaded.  A battery-gated user with a zero charge rate can never
        recover (idle slots only drain the battery), so waiting for it would
        deadlock every subsequent round; such *stalled* users are excluded
        from the quorum and are not released into the next round.  Without
        batteries (or with a positive charge rate, where gated users recover
        and the round legitimately waits) the quorum is all ``num_users``,
        which reproduces the original barrier exactly.  Under sharding the
        quorum naturally spans shards: the buffer and the stalled set are
        both global.

        Args:
            slot: current slot (aggregation timestamp).
            stalled_fn: callable returning the ascending user ids that are
                permanently unable to join the round (concatenated across
                shards by the sharded engine); only invoked when the buffer
                is short of the full fleet.

        Returns:
            Ascending user ids released into the next round.
        """
        if not self.sync_buffer:
            return []
        required = self.config.num_users
        stalled: List[int] = []
        if len(self.sync_buffer) < required and stalled_fn is not None:
            stalled = [u for u in stalled_fn() if u not in self.sync_buffer]
            required -= len(stalled)
        if len(self.sync_buffer) < required:
            return []
        time_s = slot * self.config.slot_seconds
        updates = [self.sync_buffer[user] for user in sorted(self.sync_buffer)]
        self.server.sync_round(updates, time_s=time_s)
        for update in updates:
            self._pinned_base.pop(update.user_id, None)
        self.sync_buffer.clear()
        stalled_set = set(stalled)
        return [u for u in range(self.config.num_users) if u not in stalled_set]

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, slot: int) -> None:
        """Evaluate the current global model on the held-out test set.

        Evaluation is deterministic in the global parameters, which only
        change when the server version advances — so the (accuracy, loss)
        pair is cached per version.  The fast-forward path relies on this to
        replay evaluation ticks inside a quiet region (where the model is
        frozen) at the cost of a record, not a forward pass; the slot-by-slot
        paths get the same values either way.
        """
        version = self.server.version
        cached = self._eval_cache
        if cached is not None and cached[0] == version:
            accuracy, loss = cached[1], cached[2]
        else:
            tick = self.timers.start()
            self.eval_model.set_flat_params(self.server.global_params())
            x_test, y_test = self.dataset.test_set()
            accuracy, loss = evaluate_model(self.eval_model, x_test, y_test)
            self._eval_cache = (version, accuracy, loss)
            self.timers.stop("eval", tick)
        self.accuracy.record(
            time_s=slot * self.config.slot_seconds,
            accuracy=accuracy,
            loss=loss,
            num_updates=self.server.num_updates(),
        )

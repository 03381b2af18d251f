"""Parameter server with synchronous and asynchronous update rules.

The paper's server is a Python HTTP endpoint (Section VI): for ASync-SGD it
*replaces* the current copy of the global model whenever a device uploads,
and devices download the latest copy whenever they become available.  For the
Sync-SGD (FedAvg) baseline, it waits for every participant of the round and
averages.

Beyond the update rules, the server is the natural owner of the staleness
bookkeeping the schedulers need:

* a monotonically-increasing **version** (one increment per applied update),
  from which the *lag* of Definition 1 is computed as the number of updates
  applied between a client's download and its upload;
* the set of **in-flight** training jobs and their expected finish times,
  from which the server supplies the estimated lag ``l_{d_i}`` that the
  distributed online controller (Algorithm 2, line 4) needs;
* the history of applied updates with their lag and gradient-gap values,
  which feeds the Fig. 5(a) traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.columns import ColumnLog
from repro.core.staleness import gradient_gap_from_params
from repro.fl.client import LocalUpdate

__all__ = ["AsyncUpdateRule", "ServerUpdate", "ParameterServer", "new_update_log"]


class AsyncUpdateRule(str, Enum):
    """How an asynchronous upload is merged into the global model."""

    #: Apply the client's parameter *delta* to the current global model
    #: (``theta <- theta + (theta_local - theta_base)``), the standard
    #: asynchronous parameter-server rule.  Concurrent updates accumulate,
    #: so the number of updates drives convergence speed — the behaviour the
    #: paper's evaluation relies on.  Default.
    ACCUMULATE = "accumulate"
    #: Replace the global model with the uploaded one — the literal rule of
    #: the paper's Section VI implementation ("the server replaces the
    #: current copy of the global model upon receiving it").  With many
    #: concurrent trainers the last writer wins, so this converges like a
    #: single device; kept as an ablation.
    REPLACE = "replace"
    #: Fixed mixing: ``theta <- (1 - alpha) * theta + alpha * theta_local``.
    MIXING = "mixing"
    #: Mixing with a weight that decays in the update's lag, a common
    #: staleness-mitigation rule used as an ablation.
    STALENESS_WEIGHTED = "staleness_weighted"


@dataclass
class ServerUpdate:
    """Record of one update applied to the global model.

    The one row type of the applied-update log: the server's
    :attr:`ParameterServer.updates` holds the rows, and the trace's
    ``update_samples`` is a view of them.
    """

    time_s: float
    user_id: int
    version_before: int
    lag: int
    gradient_gap: float
    train_loss: float
    sync_round: bool = False


def new_update_log() -> ColumnLog:
    """An empty applied-update log: one column per :class:`ServerUpdate` field."""
    return ColumnLog(
        time_s=np.float64,
        user_id=np.int64,
        version_before=np.int64,
        lag=np.int64,
        gradient_gap=np.float64,
        train_loss=np.float64,
        sync_round=np.bool_,
    )


class ParameterServer:
    """Global-model owner for both Sync-SGD and ASync-SGD.

    Args:
        initial_params: initial flat parameter vector of the global model.
        async_rule: merge rule for asynchronous uploads.
        mixing_alpha: mixing weight for :attr:`AsyncUpdateRule.MIXING` and the
            base weight for :attr:`AsyncUpdateRule.STALENESS_WEIGHTED`.
    """

    def __init__(
        self,
        initial_params: np.ndarray,
        async_rule: AsyncUpdateRule = AsyncUpdateRule.ACCUMULATE,
        mixing_alpha: float = 0.6,
    ) -> None:
        if initial_params.ndim != 1:
            raise ValueError("initial_params must be a flat vector")
        if not 0.0 < mixing_alpha <= 1.0:
            raise ValueError("mixing_alpha must be in (0, 1]")
        self._params = initial_params.copy()
        #: ``(array, its read-only view)`` last handed out by :meth:`global_params`.
        self._view: Optional[Tuple[np.ndarray, np.ndarray]] = None  # reprolint: static (derived from _params)
        self.async_rule = AsyncUpdateRule(async_rule)
        self.mixing_alpha = mixing_alpha
        self.version = 0
        #: One row per applied update, in application order; the engine's
        #: trace reads the same rows.
        self.updates = new_update_log()
        self._inflight: Dict[int, float] = {}
        self._download_versions: Dict[int, int] = {}
        self._index_inflight()

    # -- model access ------------------------------------------------------------------

    def global_params(self) -> np.ndarray:
        """A read-only view of the current global parameter vector.

        Zero-copy: update rules always *rebind* ``_params`` to a fresh array
        (never mutate in place), so a view handed out here remains a valid
        snapshot of the model at hand-out time — which is exactly what a
        downloading client needs.  Every caller between two updates gets the
        *same* view object (the cache remembers which array it views, so a
        rebind is recognised as stale without every update rule having to
        say so): users that downloaded the same version pin one object, and
        a checkpoint stores each base vector once.
        """
        cached = self._view
        if cached is None or cached[0] is not self._params:
            view = self._params.view()
            view.flags.writeable = False
            self._view = cached = (self._params, view)
        return cached[1]

    def __getstate__(self) -> Dict[str, object]:
        # The cached view is derived; pickling it would write the current
        # vector a second time into every snapshot.  The in-flight index is
        # derived from ``_inflight`` and rebuilt on load.
        state = {**self.__dict__, "_view": None}
        for name in ("_finishes", "_inflight_mask"):
            del state[name]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._index_inflight()

    def num_updates(self) -> int:
        """Number of updates applied so far (the version counter)."""
        return self.version

    def _count_update(
        self,
        update: LocalUpdate,
        time_s: float,
        lag: int,
        gradient_gap: float,
        sync_round: bool,
    ) -> tuple:
        """Count one applied update; returns its log row.  The caller
        appends the rows and takes their users out of flight
        (:meth:`_log_applied`)."""
        row = (
            time_s, update.user_id, self.version, lag, gradient_gap,
            update.train_loss, sync_round,
        )
        self.version += 1
        return row

    def _log_applied(self, rows: List[tuple]) -> None:
        """Log the rows of a block of applied updates; their jobs are done."""
        self.updates.extend_rows(rows)
        self.unregister_inflight_block([row[1] for row in rows])

    # -- download / lag bookkeeping ------------------------------------------------------

    def download_block(self, user_ids: Sequence[int]) -> np.ndarray:
        """Several devices pull the current model: one version, one view."""
        self._download_versions.update(dict.fromkeys(user_ids, self.version))
        return self.global_params()

    def downloaded_version(self, user_id: int) -> Optional[int]:
        """Version the user last downloaded (``None`` if it never downloaded)."""
        return self._download_versions.get(user_id)

    def lag_of(self, base_version: int) -> int:
        """Lag (Definition 1): updates applied since ``base_version``."""
        if base_version < 0 or base_version > self.version:
            raise ValueError("base_version outside the server's history")
        return self.version - base_version

    # -- in-flight jobs and lag estimation -------------------------------------------------

    def _index_inflight(self) -> None:
        """(Re)build the derived in-flight index from ``_inflight``.

        :meth:`estimate_lags` counts window hits with two binary searches
        per user against the sorted finish times instead of one
        O(users x in-flight) boolean matrix, which keeps megafleet ready
        pools (10^5 users with 10^5 concurrent jobs) affordable.  The index
        is maintained incrementally by :meth:`register_inflight_block` /
        :meth:`unregister_inflight_block`; this full build only runs at
        construction and after unpickling.
        """
        count = len(self._inflight)
        #: Finish times, ascending in ``[:len(_inflight)]``; the tail is
        #: spare capacity.  Equal finishes are distinct entries.
        self._finishes = np.empty(max(16, 2 * count), dtype=np.float64)  # reprolint: static (derived from _inflight)
        self._finishes[:count] = sorted(self._inflight.values())
        #: ``mask[user]`` is True while ``user`` is in flight.  The last
        #: entry is a sentinel that stays False: lookups clip unseen user ids
        #: onto it.
        self._inflight_mask = np.zeros(max(self._inflight, default=0) + 2, dtype=bool)  # reprolint: static (derived from _inflight)
        self._inflight_mask[list(self._inflight)] = True

    def register_inflight_block(
        self, user_ids: Sequence[int], expected_finishes_s: Sequence[float]
    ) -> None:
        """Record the jobs a slot started: one merge into the sorted finishes.

        Takes Python ints and floats (they are what a checkpoint pickles).
        Registering a user that is already in flight *replaces* its job —
        the old finish time leaves the index before the new one enters —
        and a user named twice in one block keeps its last finish, as the
        same calls one at a time would leave it.  A negative id is refused
        before anything changes (it would alias the mask's sentinel).
        """
        jobs = dict(zip(user_ids, expected_finishes_s))
        if not jobs:
            return
        if min(jobs) < 0:
            raise ValueError("user_id must be non-negative")
        self.unregister_inflight_block(jobs)
        count = len(self._inflight)
        total = count + len(jobs)
        self._inflight.update(jobs)
        mask = self._inflight_mask
        top = max(jobs)
        if top >= mask.size - 1:
            self._inflight_mask = np.zeros(2 * (top + 1), dtype=bool)
            self._inflight_mask[: mask.size] = mask
        self._inflight_mask[list(jobs)] = True
        finishes = self._finishes
        if total > finishes.size:
            self._finishes = np.empty(2 * total, dtype=np.float64)
            self._finishes[:count] = finishes[:count]
            finishes = self._finishes
        # One merge pass from the back: the finishes that enter at the same
        # position (equal ones, above all) enter together, behind one shift
        # of everything after them.
        added = sorted(jobs.values())
        positions = finishes[:count].searchsorted(added).tolist()
        end, j = count, len(added)
        for position, run in groupby(reversed(positions)):
            i = j - len(list(run))
            finishes[position + j : end + j] = finishes[position:end]
            finishes[position + i : position + j] = added[i:j]
            end, j = position, i

    def unregister_inflight(self, user_id: int) -> None:
        """Remove a completed or cancelled in-flight job (no-op if unknown)."""
        self.unregister_inflight_block((user_id,))

    def unregister_inflight_block(self, user_ids: Iterable[int]) -> None:
        """Remove the in-flight jobs of ``user_ids``: one compaction of the
        sorted finishes.  Unknown (or repeated) users are skipped."""
        count = len(self._inflight)
        pop = self._inflight.pop
        mask = self._inflight_mask
        gone: List[float] = []
        for user in user_ids:
            finish = pop(user, None)
            if finish is not None:
                mask[user] = False
                gone.append(finish)
        if not gone:
            return
        gone.sort()
        finishes = self._finishes
        # One compaction pass: a run of equal finishes leaves from the
        # leftmost entry equal to it on (which of several equal entries go
        # is immaterial), and what survives between two runs moves left.
        holes = finishes[:count].searchsorted(gone).tolist()
        write = read = holes[0]
        for position, run in groupby(holes):
            if position > read:
                finishes[write : write + position - read] = finishes[read:position]
                write += position - read
            read = position + len(list(run))
        finishes[write : write + count - read] = finishes[read:count]

    def estimate_lags(
        self, user_ids: np.ndarray, now_s: Union[float, np.ndarray], durations_s: np.ndarray
    ) -> np.ndarray:
        """The lag each ready user's job started now would incur.

        The server knows the expected finish time of every running job
        (Algorithm 2 line 4: the lag ``l_{d_i}`` is "supplied by the server
        with the estimated arrival time of the running tasks").  Counts, for
        every user in ``user_ids``, the in-flight jobs of *other* users
        expected to finish within ``[now_s, now_s + duration_s]`` — each
        bumps the global version before that user uploads.  Used by the
        fleet backend to build an
        :class:`~repro.core.policies.ObservationBatch` without one Python
        call per ready user.

        The counting runs against the incrementally-maintained sorted finish
        times: two ``searchsorted`` probes per ready user count every finish
        in the inclusive window ``[now_s, now_s + duration_s]``, and each
        user's own in-flight job (if any) is subtracted when it falls inside
        its window — an exact integer decomposition of the rule, with
        O(r log k) cost instead of the O(r * k) boolean matrix a megafleet
        ready pool cannot afford.

        Args:
            user_ids: ready users, shape ``(r,)``.
            now_s: current wall-clock time, or a column ``(m, 1)`` of times
                (the lags of the same in-flight set at ``m`` slots ahead).
            durations_s: per-user training duration in seconds, shape ``(r,)``.

        Returns:
            ``int64`` lag estimates, shape ``(r,)`` (``(m, r)`` for a column).
        """
        user_ids = np.asarray(user_ids)
        durations_s = np.asarray(durations_s, dtype=np.float64)
        if durations_s.size and durations_s.min() <= 0:
            raise ValueError("duration_s must be positive")
        if not self._inflight:
            return np.zeros(np.shape(now_s)[:-1] + user_ids.shape, dtype=np.int64)
        finishes = self._finishes[: len(self._inflight)]
        horizons = now_s + durations_s
        lo = finishes.searchsorted(now_s, side="left")
        hi = finishes.searchsorted(horizons, side="right")
        counts = (hi - lo).astype(np.int64, copy=False)
        # Subtract each user's own job when it falls inside its own window
        # (the "other users" of the rule).
        # A ready user is normally not in flight at all — the engine only
        # offers non-training users for decisions — so the per-user Python
        # work is limited to actual intersections (usually none).
        mask = self._inflight_mask
        for index in np.flatnonzero(mask[np.minimum(user_ids, mask.size - 1)]):
            own = self._inflight[int(user_ids.flat[index])]
            upper = horizons[..., index]
            counts[..., index] -= (np.reshape(now_s, np.shape(upper)) <= own) & (own <= upper)
        return counts

    # -- asynchronous updates -----------------------------------------------------------------

    def _merged(self, params: np.ndarray, update: LocalUpdate) -> Tuple[np.ndarray, int]:
        """``params`` with ``update`` merged in under the asynchronous rule
        (always a fresh array), and the update's lag."""
        if update.delta.shape != params.shape:
            raise ValueError("uploaded parameter vector has the wrong shape")
        lag = self.lag_of(update.base_version)
        rule = self.async_rule
        if rule is AsyncUpdateRule.ACCUMULATE:
            return params + update.delta, lag
        if update.params is None:
            raise ValueError(
                f"the {rule.value!r} merge rule consumes absolute "
                "parameter vectors; upload with include_params=True "
                "(delta-only uploads only suffice for 'accumulate')"
            )
        if rule is AsyncUpdateRule.REPLACE:
            return update.params.copy(), lag
        alpha = self.mixing_alpha
        if rule is AsyncUpdateRule.STALENESS_WEIGHTED:
            alpha = alpha / (1.0 + lag)
        return (1.0 - alpha) * params + alpha * update.params, lag

    def async_update(self, update: LocalUpdate, time_s: float, gradient_gap: float = 0.0) -> ServerUpdate:
        """Apply an asynchronous upload to the global model.

        Args:
            update: the client's upload.
            time_s: wall-clock time of the upload (for the update log).
            gradient_gap: the gap value measured for this update (Eq. 4),
                recorded for the Fig. 5(a)/(d) traces.
        """
        self._params, lag = self._merged(self._params, update)
        row = self._count_update(update, time_s, lag, gradient_gap, sync_round=False)
        self._log_applied([row])
        return ServerUpdate(*row)

    def async_update_block(
        self,
        blocks: Iterable[Sequence[LocalUpdate]],
        bases: Sequence[np.ndarray],
        time_s: float,
    ) -> List[tuple]:
        """Apply the uploads arriving at ``time_s`` strictly left to right.

        ``blocks`` releases the uploads in order, as lists (a slot's upload
        stream trains a block when it is pulled); ``bases[i]`` is the vector
        the ``i``-th upload trained from.  One :meth:`async_update` per
        upload, each logged with its realised Eq. (2) gap — the distance
        from its base to the model as the uploads before it left it — with
        one log append and one rebind of the global vector.  No merged list
        is held while the next is pulled.  An upload that raises leaves the
        ones before it applied.  Returns the new log rows.
        """
        params = self._params
        rows: List[tuple] = []
        bases = iter(bases)
        try:
            for block in blocks:
                for update in block:
                    base = next(bases)
                    if base.shape != params.shape:
                        raise ValueError("parameter vectors must have the same shape")
                    moved = params - base
                    gap = math.sqrt(moved.dot(moved))  # np.linalg.norm(moved)
                    params, lag = self._merged(params, update)
                    rows.append(self._count_update(update, time_s, lag, gap, sync_round=False))
                block = update = None  # the merged deltas go before the next block trains
        finally:
            self._params = params
            self._log_applied(rows)
        return rows

    # -- synchronous (FedAvg) rounds -------------------------------------------------------------

    def sync_round(self, updates: Sequence[LocalUpdate], time_s: float) -> List[ServerUpdate]:
        """Apply one synchronous FedAvg round.

        All participants trained from the same global model; their parameter
        vectors are averaged weighted by local dataset size.  The version is
        incremented once per participant so that lag statistics remain
        comparable between the synchronous and asynchronous runs.

        Delta-only uploads are supported: participants of a synchronous round
        all trained from the server's *current* parameters (the version only
        advances inside this method), so an absent ``params`` is
        reconstructed as ``global + delta``.

        In lock-step aggregation the gradient gap is the movement of the
        global model over the round (sampled "at the time of aggregation",
        Fig. 5a); every member's record carries that same value.
        """
        if not updates:
            raise ValueError("a synchronous round needs at least one update")
        weights = np.array([u.num_samples for u in updates], dtype=float)
        if weights.sum() <= 0:
            raise ValueError("total sample count must be positive")
        weights = weights / weights.sum()
        if all(u.params is not None for u in updates):
            stacked = np.stack([u.params for u in updates])
        else:
            for update in updates:
                if update.params is None and update.base_version != self.version:
                    raise ValueError(
                        "delta-only sync upload trained from version "
                        f"{update.base_version}, but the round aggregates at "
                        f"version {self.version}; reconstruction would be "
                        "wrong — upload with include_params=True instead"
                    )
            stacked = self._params[None, :] + np.stack([u.delta for u in updates])
        before = self._params
        self._params = (weights[:, None] * stacked).sum(axis=0)
        round_gap = gradient_gap_from_params(before, self._params)
        rows = [
            self._count_update(update, time_s, 0, round_gap, sync_round=True)
            for update in updates
        ]
        self._log_applied(rows)
        return [ServerUpdate(*row) for row in rows]

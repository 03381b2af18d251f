"""Seeded fault plans and the injector that threads them through the stack.

A :class:`FaultPlan` is a flat list of :class:`FaultEvent` entries.  Engine
events target shard workers and are keyed by *slot* (the deterministic
simulation clock); store events target the checkpoint store and are keyed by
the *slot of the checkpoint being saved*.  Plans serialise to JSON so a
chaos run can be re-executed from a file (``repro-sim serve --fault-plan``)
or regenerated from its seed (:meth:`FaultPlan.generate`).

The :class:`FaultInjector` is the runtime face of a plan: it hands each
shard worker its pending events, answers the checkpoint store's "should this
save fail?" question, and — critically for recovery — marks events as
*fired* so a respawned worker replaying slots it already executed does not
re-suffer the same fault (which would loop the supervisor forever).

Fault kinds
===========

``kill_shard``
    The worker SIGKILLs itself when it reaches (or fast-forwards past) the
    event slot — a hard process loss, no teardown.
``delay_ipc``
    One-shot: the worker sleeps ``delay_s`` before serving the request at
    the event slot.  With ``delay_s`` beyond the coordinator's IPC timeout
    this exercises the hung-shard (timeout → respawn) path; below it, it is
    harmless jitter that must not change results.
``drop_message``
    The worker consumes the request at the event slot and never replies —
    the pipe stays open, the process stays alive, the coordinator's bounded
    ``wait`` must time out.
``slow_shard``
    The worker sleeps ``delay_s`` before *every* request whose slot falls in
    ``[at, at + span)`` — sustained straggling rather than a single stall.
``corrupt_checkpoint``
    The checkpoint store flips bytes in the snapshot it is writing for the
    first checkpoint at or after slot ``at``; save-time verification detects
    the damage and raises without publishing the snapshot.
``disk_full``
    The store's save for the first checkpoint at or after slot ``at`` raises
    ``OSError(ENOSPC)`` before the manifest flip.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "ENGINE_FAULT_KINDS",
    "FAULT_KINDS",
    "STORE_FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
]

#: Events executed inside shard workers (keyed by simulation slot).
ENGINE_FAULT_KINDS = ("kill_shard", "delay_ipc", "drop_message", "slow_shard")

#: Events executed by the checkpoint store (keyed by checkpoint slot).
STORE_FAULT_KINDS = ("corrupt_checkpoint", "disk_full")

FAULT_KINDS = ENGINE_FAULT_KINDS + STORE_FAULT_KINDS


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        at: the slot the event arms at.  Engine events fire on the first
            worker request whose slot is ``>= at`` (fast-forward can jump
            over the exact slot); store events fire on the first checkpoint
            save whose slot is ``>= at``.
        shard: target shard index for engine events (``None`` for store
            events, which have no shard affinity).
        delay_s: sleep duration for ``delay_ipc`` / ``slow_shard``.
        span: slot width of a ``slow_shard`` window.
    """

    kind: str
    at: int
    shard: Optional[int] = None
    delay_s: float = 0.0
    span: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise ValueError("fault slot must be non-negative")
        if self.kind in ENGINE_FAULT_KINDS and self.shard is None:
            raise ValueError(f"{self.kind!r} events must name a target shard")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "at": self.at,
            "shard": self.shard,
            "delay_s": self.delay_s,
            "span": self.span,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultEvent":
        return cls(
            kind=str(payload["kind"]),
            at=int(payload["at"]),
            shard=None if payload.get("shard") is None else int(payload["shard"]),
            delay_s=float(payload.get("delay_s", 0.0)),
            span=int(payload.get("span", 1)),
        )


@dataclass
class FaultPlan:
    """A reproducible schedule of fault events.

    A plan is content, not state: the fired-set bookkeeping lives in
    :class:`FaultInjector`, so one plan can drive many runs.  Plans are
    deliberately *not* part of :class:`~repro.analysis.runner.RunSpec` or
    its content hash — faults must never change what a run computes, only
    how bumpy the road is.
    """

    seed: int = 0
    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: (e.at, e.kind, e.shard or 0))

    @classmethod
    def generate(
        cls,
        seed: int,
        total_slots: int,
        shards: int,
        kinds: Optional[Sequence[str]] = None,
        num_events: int = 3,
        delay_s: float = 0.05,
    ) -> "FaultPlan":
        """Draw a random plan from a seed (same seed → identical plan).

        Events land uniformly in the middle 80% of the horizon so they hit
        mid-run rather than degenerate start/end slots.
        """
        import numpy as np

        if shards <= 0:
            raise ValueError("shards must be positive")
        kinds = tuple(kinds) if kinds else FAULT_KINDS
        unknown = [k for k in kinds if k not in FAULT_KINDS]
        if unknown:
            raise ValueError(f"unknown fault kind(s): {unknown}")
        rng = np.random.default_rng(seed)
        lo = max(1, total_slots // 10)
        hi = max(lo + 1, total_slots - total_slots // 10)
        events = []
        for _ in range(num_events):
            kind = str(kinds[int(rng.integers(len(kinds)))])
            events.append(
                FaultEvent(
                    kind=kind,
                    at=int(rng.integers(lo, hi)),
                    shard=(
                        int(rng.integers(shards))
                        if kind in ENGINE_FAULT_KINDS
                        else None
                    ),
                    delay_s=delay_s,
                    span=max(1, int(rng.integers(1, 4))),
                )
            )
        return cls(seed=seed, events=events)

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        return cls(
            seed=int(payload.get("seed", 0)),
            events=[FaultEvent.from_dict(e) for e in payload.get("events", [])],
        )


class FaultInjector:
    """Runtime state of one plan driving one (possibly retried) run.

    Thread-safe: the service's worker threads, the engine supervisor and the
    checkpoint store may all consult the same injector.  Events are
    *consumed* — once fired (or once recovery replays past them via
    :meth:`consume_engine_through`) they never fire again, which is what
    keeps a supervisor recovery loop from re-injecting the fault that
    triggered it.
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan or FaultPlan()
        self._lock = threading.Lock()
        self._fired: set = set()  # guarded-by: _lock

    def _key(self, event: FaultEvent) -> tuple:
        return (event.kind, event.at, event.shard)

    # -- engine-side events -----------------------------------------------------

    def worker_events(self, shard: int) -> List[Dict[str, Any]]:
        """Unfired engine events for one shard, as plain picklable dicts.

        Shipped to the worker process at spawn time; the worker executes
        them itself (a SIGKILL must come from inside the process that dies).
        """
        with self._lock:
            return [
                event.to_dict()
                for event in self.plan.events
                if event.kind in ENGINE_FAULT_KINDS
                and event.shard == shard
                and self._key(event) not in self._fired
            ]

    def consume_engine_through(self, slot: int) -> List[FaultEvent]:
        """Mark every engine event armed at or before ``slot`` as fired.

        Called by the supervisor after a shard failure, with the highest
        slot any shard was asked to execute: recovery replays from an
        earlier snapshot, and the events inside the replayed window must
        not re-fire.  Returns the newly consumed events (for logging).
        """
        consumed = []
        with self._lock:
            for event in self.plan.events:
                key = self._key(event)
                if (
                    event.kind in ENGINE_FAULT_KINDS
                    and event.at <= slot
                    and key not in self._fired
                ):
                    self._fired.add(key)
                    consumed.append(event)
        return consumed

    # -- store-side events ------------------------------------------------------

    def on_checkpoint_save(self, slot: int) -> Optional[str]:
        """The store fault to inject for a checkpoint save at ``slot``.

        Returns ``"corrupt_checkpoint"``, ``"disk_full"`` or ``None``; a
        returned event is consumed (one event breaks exactly one save).
        """
        with self._lock:
            for event in self.plan.events:
                key = self._key(event)
                if (
                    event.kind in STORE_FAULT_KINDS
                    and event.at <= slot
                    and key not in self._fired
                ):
                    self._fired.add(key)
                    return event.kind
        return None

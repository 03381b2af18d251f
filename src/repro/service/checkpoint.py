"""Checkpoint subsystem: snapshot/restore with a bitwise resume contract.

A checkpoint captures everything a run has mutated — the coordinator-side
coupling state (parameter server, policy queues, lag estimates, the
Eq. (12) gap array, transport accounting, trace aggregates, the evaluation
cache) plus the per-user state (device/app/thermal/battery arrays, client
RNG generator states, momentum velocities, train-ahead scheduler flight
state).  Everything *static* — device calibration, arrival schedules, data
partitions — is rebuilt bitwise from the configuration by the existing
builders, so checkpoints stay small and a restored run re-derives the same
immutable inputs the original run had.

The determinism contract: a run restored from a checkpoint taken at slot
``S`` and driven to the horizon produces results bitwise-identical to the
uninterrupted run, for the single-process engine with or without
event-horizon fast-forward and for the sharded engine — including restoring
under a *different* shard count than the one that wrote the checkpoint
(per-user state is sliced contiguously, and every cross-user reduction in
the engine folds in ascending user order regardless of layout).

Checkpoints are taken at slot boundaries only.  Inside a fast-forwarded
quiet region the :class:`Checkpointer` caps the region at the next due
slot (`limit`); quiet regions are split-exact at any slot boundary, so the
cap changes nothing but the checkpoint opportunity.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import pickle
import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.sim.config import SimulationConfig

if TYPE_CHECKING:
    from repro.sim.coupling import CouplingCore
    from repro.sim.timers import EngineTimers

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "CheckpointStore",
    "Checkpointer",
    "CoordinatorState",
    "EngineCheckpoint",
    "RunInterrupted",
    "reslice",
]

#: Bumped whenever the on-disk layout or the state dicts change shape.
#: v6: the pickled attribute sets of ``ParameterServer`` (derived in-flight
#: index, rebuilt on load), ``OnlinePolicy`` (array decision log) and
#: ``OfflinePolicy`` (per-user plan / pending columns) changed.
CHECKPOINT_FORMAT_VERSION = 6


class CheckpointError(RuntimeError):
    """A checkpoint failed its integrity verification.

    Raised at save time when the just-written snapshot does not read back
    bit-for-bit (torn write, bad disk, injected ``corrupt_checkpoint``
    fault), *before* the manifest flips — the previous snapshot stays the
    loadable one.  Raised at load time when a published snapshot's content
    no longer matches its recorded checksums (at-rest corruption).
    """


class RunInterrupted(Exception):
    """Raised out of the slot loop when a stop was requested.

    Carries the just-taken :class:`EngineCheckpoint` so the caller (the job
    orchestrator, a signal handler) can persist it and mark the run
    resumable.
    """

    def __init__(self, checkpoint: "EngineCheckpoint") -> None:
        super().__init__(f"run interrupted at slot {checkpoint.slot}")
        self.checkpoint = checkpoint


@dataclass
class CoordinatorState:
    """The coordinator-side coupling state of one checkpoint, serialised once.

    ``payload`` is the nine coupled objects pickled by *one* ``dumps`` call,
    so references shared between them — the one view of a model version
    that every user who downloaded it pins — are shared again in whatever
    :meth:`materialize` returns.  The bytes are the isolated snapshot: the
    live run cannot reach them, :class:`CheckpointStore` writes them as
    they are, and every :meth:`materialize` unpickles a fresh object graph,
    so restores of one in-memory checkpoint never alias each other.  The
    other fields are the progress scalars of a telemetry frame, read from
    the live core at capture so reporting never unpickles a snapshot.
    """

    payload: bytes
    timer_seconds: Dict[str, float]
    num_updates: int
    accuracy: Optional[float]
    loss: Optional[float]
    queue_length: float
    virtual_queue_length: float

    _FIELDS = (
        "policy",
        "server",
        "transport",
        "trace",
        "accuracy",
        "gaps",
        "sync_buffer",
        "eval_cache",
        "pinned_base",
    )

    @classmethod
    def capture(cls, core: "CouplingCore", timers: "EngineTimers") -> "CoordinatorState":
        """Snapshot a :class:`~repro.sim.coupling.CouplingCore` (+ timers)."""
        samples = core.accuracy.samples
        task_queue = getattr(core.policy, "task_queue", None)
        virtual_queue = getattr(core.policy, "virtual_queue", None)
        return cls(
            payload=_pickled(core.checkpoint_unit()),
            timer_seconds=dict(timers.seconds),
            num_updates=core.server.num_updates(),
            accuracy=samples[-1].accuracy if samples else None,
            loss=samples[-1].loss if samples else None,
            queue_length=float(getattr(task_queue, "length", 0.0)),
            virtual_queue_length=float(getattr(virtual_queue, "length", 0.0)),
        )

    def materialize(self) -> "MaterializedCoordinator":
        """A fresh, un-aliased copy of the coupling state for one restore."""
        return MaterializedCoordinator(
            **dict(zip(self._FIELDS, pickle.loads(self.payload))),
            timer_seconds=dict(self.timer_seconds),
        )


@dataclass
class MaterializedCoordinator:
    """One restore's worth of coupling state (see :class:`CoordinatorState`)."""

    policy: Any
    server: Any
    transport: Any
    trace: Any
    accuracy: Any
    gaps: Any
    sync_buffer: Dict[int, Any]
    eval_cache: Optional[Any]
    pinned_base: Dict[int, Any]
    timer_seconds: Dict[str, float] = field(default_factory=dict)

    def install(self, core: "CouplingCore", timers: "EngineTimers") -> None:
        """Bind this state into a freshly built coupling core."""
        core.load_checkpoint_unit(
            tuple(getattr(self, name) for name in CoordinatorState._FIELDS)
        )
        # Seed every current category first: a checkpoint written before a
        # timer bucket existed must not resurrect a dict missing it.
        timers.seconds = {name: 0.0 for name in timers.CATEGORIES}
        timers.seconds.update(self.timer_seconds)


@dataclass
class EngineCheckpoint:
    """A complete, picklable snapshot of one run at a slot boundary.

    The per-user state is one state dict per contiguous user slice in
    ``slices`` — identical struct-of-arrays content whether the
    single-process engine or the sharded engine wrote it, so checkpoints are
    interchangeable across shard counts via :func:`reslice`.
    """

    format_version: int
    slot: int
    pending_arrivals: List[int]
    global_ready: int
    config: SimulationConfig
    fast_forward: bool
    batched_training: bool
    trace_level: str
    coordinator: CoordinatorState
    slices: List[dict]

    def __post_init__(self) -> None:
        if not self.slices:
            raise ValueError("a checkpoint requires per-slice state")


class Checkpointer:
    """Decides *when* to checkpoint and *receives* the snapshots.

    One instance rides one ``run()`` call.  The engines call :meth:`begin`
    when the slot loop starts (slot 0 fresh, slot ``S`` on resume), ask
    :meth:`due` at the top of every slot, and hand the snapshot to
    :meth:`take`, which forwards it to ``sink`` and — if a stop was
    requested — raises :class:`RunInterrupted` to unwind the run.

    The fast-forward kernel asks :meth:`limit` for the maximum quiet slots
    it may advance before the next due boundary; quiet regions split
    exactly at slot boundaries, so capping them is bitwise-free.

    Args:
        sink: callable receiving each :class:`EngineCheckpoint`.
        every_slots: periodic checkpoint interval (slots on the absolute
            grid ``slot % every_slots == 0``), or ``None``.
        at_slots: explicit extra checkpoint slots (tests use this to place
            interrupt points precisely).
        telemetry: optional observer invoked with each checkpoint *before*
            the sink — a telemetry frame still streams even when the sink
            itself faults (e.g. an injected ``corrupt_checkpoint``).
    """

    def __init__(
        self,
        sink: Callable[[EngineCheckpoint], None],
        every_slots: Optional[int] = None,
        at_slots: Optional[Sequence[int]] = None,
        telemetry: Optional[Callable[[EngineCheckpoint], None]] = None,
    ) -> None:
        if every_slots is not None and every_slots <= 0:
            raise ValueError("every_slots must be positive when set")
        self.sink = sink
        self.every_slots = every_slots
        self.at_slots = set(at_slots or ())
        self.telemetry = telemetry
        self._cancel = threading.Event()
        self._last_slot = 0

    def begin(self, slot: int) -> None:
        """Mark the slot the run (re)starts at; no checkpoint is due there."""
        self._last_slot = slot

    def request_stop(self) -> None:
        """Ask the run to checkpoint at the next slot boundary and unwind."""
        self._cancel.set()

    @property
    def stop_requested(self) -> bool:
        return self._cancel.is_set()

    def due(self, slot: int) -> bool:
        """Whether a checkpoint should be taken at the top of ``slot``."""
        if slot <= self._last_slot:
            return False
        if self.stop_requested:
            return True
        if slot in self.at_slots:
            return True
        return self.every_slots is not None and slot % self.every_slots == 0

    def next_due(self, slot: int) -> Optional[int]:
        """The next scheduled checkpoint slot strictly after ``slot``."""
        candidates = [s for s in self.at_slots if s > slot]
        if self.every_slots is not None:
            candidates.append(((slot // self.every_slots) + 1) * self.every_slots)
        return min(candidates) if candidates else None

    def limit(self, slot: int) -> Optional[int]:
        """Cap (in slots) on a quiet advance starting at ``slot``."""
        if self.stop_requested:
            return 1
        nxt = self.next_due(slot)
        return None if nxt is None else nxt - slot

    def take(self, checkpoint: EngineCheckpoint) -> None:
        """Deliver one snapshot; unwinds the run if a stop was requested."""
        if self.telemetry is not None:
            self.telemetry(checkpoint)
        self.sink(checkpoint)
        self._last_slot = checkpoint.slot
        if self.stop_requested:
            raise RunInterrupted(checkpoint)


def reslice(slices: Sequence[dict], bounds: Sequence[Tuple[int, int]]) -> List[dict]:
    """Re-partition per-slice fleet state dicts onto new contiguous bounds.

    When the new bounds equal the stored ones the slices pass through
    verbatim (fully bitwise, including each shard's cumulative energy
    series).  Otherwise the per-user arrays and lists concatenate in
    ascending user order and re-slice; the cumulative per-slot energy
    *series* — a cross-user fold that cannot be split back per-user — is
    merged element-wise and assigned wholly to the new first slice, with
    equal-length zero series elsewhere, which keeps every headline number
    (all per-user array folds) exact and only perturbs the plot-only merged
    series by re-association.
    """
    import numpy as np

    slices = sorted(slices, key=lambda s: s["lo"])
    old_bounds = [(s["lo"], s["hi"]) for s in slices]
    if list(old_bounds) == [tuple(b) for b in bounds]:
        return list(slices)
    if old_bounds[0][0] != bounds[0][0] or old_bounds[-1][1] != bounds[-1][1]:
        raise ValueError("reslice bounds must cover the same user population")

    lo0 = old_bounds[0][0]

    def concat(path: Tuple[str, ...]) -> Any:
        parts = []
        for piece in slices:
            value = piece
            for key in path:
                value = value[key]
            parts.append(value)
        if isinstance(parts[0], list):
            merged: List = []
            for part in parts:
                merged.extend(part)
            return merged
        return np.concatenate(parts)

    fleet_keys = [k for k in slices[0]["fleet"] if k != "accountant"]
    acct_keys = [
        k
        for k in slices[0]["fleet"]["accountant"]
        if k not in ("per_slot_total", "running_total_j")
    ]
    full_fleet = {k: concat(("fleet", k)) for k in fleet_keys}
    full_acct = {k: concat(("fleet", "accountant", k)) for k in acct_keys}
    full_clients = concat(("clients",))
    full_pending: Dict[int, tuple] = {}
    full_trained: Dict[int, object] = {}
    for piece in slices:
        full_pending.update(piece["pending"])
        full_trained.update(piece["trained"])

    from repro.sim.fleet import merge_slot_series

    stacked = merge_slot_series(
        [s["fleet"]["accountant"]["per_slot_total"] for s in slices]
    )
    merged_series: List[float] = [] if stacked is None else stacked.tolist()

    out: List[dict] = []
    for index, (lo, hi) in enumerate(bounds):
        a, b = lo - lo0, hi - lo0
        accountant = {k: full_acct[k][a:b] for k in acct_keys}
        if index == 0:
            accountant["per_slot_total"] = list(merged_series)
            accountant["running_total_j"] = (
                float(merged_series[-1]) if merged_series else 0.0
            )
        else:
            accountant["per_slot_total"] = [0.0] * len(merged_series)
            accountant["running_total_j"] = 0.0
        fleet = {k: full_fleet[k][a:b] for k in fleet_keys}
        fleet["accountant"] = accountant
        out.append(
            {
                "lo": lo,
                "hi": hi,
                "fleet": fleet,
                "clients": full_clients[a:b],
                "pending": {u: v for u, v in full_pending.items() if lo <= u < hi},
                "trained": {u: v for u, v in full_trained.items() if lo <= u < hi},
            }
        )
    return out


class CheckpointStore:
    """On-disk layout of one run's checkpoints: a manifest plus snapshots.

    Every snapshot lands in its own fresh ``snapshot-<seq>/`` directory:
    each contiguous user slice gets its own ``users_<lo>_<hi>.pkl``, the
    coordinator writes ``coordinator.pkl`` (config + coupling state), and
    ``meta.json`` records the slot coordinates
    plus a sha256 checksum of every file.  Each file is serialised once in
    memory; its checksum is computed from those bytes, and the written file
    is read back and compared with them byte for byte before publication —
    so a torn or altered write is caught at save time, not hashed into a
    consistent-looking checksum.  Only then is ``manifest.json`` flipped
    via an atomic rename to name the directory as ``latest``.  Pickles of
    published snapshots are never reopened or truncated, so a crash,
    SIGKILL or detected corruption at *any* point mid-save leaves the
    manifest referencing the previous complete, loadable snapshot.

    Retention: the manifest carries the set of retained snapshots — the
    newest ``keep_last`` plus every slot-milestone snapshot
    (``slot % keep_every_slots == 0``) — so week-long horizons can keep
    periodic restore points without unbounded disk growth.  Pruning runs
    after the manifest flip and deletes only directories outside the new
    retention set; a crash mid-prune merely leaves extra directories for
    the next successful save to collect.

    Args:
        root: store directory.
        keep_last: how many most-recent snapshots to retain (≥ 1).
        keep_every_slots: additionally retain every snapshot whose slot is
            a multiple of this, or ``None`` for recency-only retention.
        fault_injector: optional :class:`~repro.faults.plan.FaultInjector`
            consulted once per save; an armed ``corrupt_checkpoint`` event
            flips bytes in the just-written snapshot (caught by
            verification), ``disk_full`` raises ``OSError(ENOSPC)`` before
            the manifest flip.
    """

    MANIFEST = "manifest.json"
    SNAPSHOT_PREFIX = "snapshot-"
    META = "meta.json"

    def __init__(
        self,
        root: Union[str, Path],
        keep_last: int = 1,
        keep_every_slots: Optional[int] = None,
        fault_injector: Optional[Any] = None,
    ) -> None:
        if keep_last < 1:
            raise ValueError("keep_last must be at least 1")
        if keep_every_slots is not None and keep_every_slots <= 0:
            raise ValueError("keep_every_slots must be positive when set")
        self.root = Path(root)
        self.keep_last = keep_last
        self.keep_every_slots = keep_every_slots
        self.fault_injector = fault_injector

    def exists(self) -> bool:
        return (self.root / self.MANIFEST).is_file()

    def _snapshot_dirs(self) -> List[Path]:
        return [
            path
            for path in self.root.glob(self.SNAPSHOT_PREFIX + "*")
            if path.is_dir()
        ]

    def _next_snapshot_dir(self) -> Path:
        """A fresh directory name, strictly after every existing one.

        Sequence numbers derive from the directories on disk — not the
        manifest — so a partial directory left by a crashed save is never
        reused for new writes.
        """
        seqs = []
        for path in self._snapshot_dirs():
            suffix = path.name[len(self.SNAPSHOT_PREFIX):]
            if suffix.isdigit():
                seqs.append(int(suffix))
        seq = max(seqs, default=-1) + 1
        return self.root / f"{self.SNAPSHOT_PREFIX}{seq:08d}"

    def _read_manifest(self) -> Dict[str, Any]:
        manifest = json.loads((self.root / self.MANIFEST).read_text())
        if manifest.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(
                f"checkpoint format {manifest.get('format_version')} unsupported "
                f"(expected {CHECKPOINT_FORMAT_VERSION})"
            )
        return manifest

    def _retained(self, entries: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Apply the retention policy to ``[{"dir", "slot"}, ...]`` entries."""
        entries = sorted(entries, key=lambda e: e["dir"])
        keep = {e["dir"] for e in entries[-self.keep_last:]}
        if self.keep_every_slots is not None:
            keep.update(
                e["dir"]
                for e in entries
                if e["slot"] % self.keep_every_slots == 0
            )
        return [e for e in entries if e["dir"] in keep]

    def save(self, checkpoint: EngineCheckpoint) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        snapshot = self._next_snapshot_dir()
        snapshot.mkdir()
        injected = (
            None
            if self.fault_injector is None
            else self.fault_injector.on_checkpoint_save(checkpoint.slot)
        )
        meta: Dict[str, Any] = {
            "format_version": checkpoint.format_version,
            "slot": checkpoint.slot,
            "pending_arrivals": list(checkpoint.pending_arrivals),
            "global_ready": checkpoint.global_ready,
            "fast_forward": checkpoint.fast_forward,
            "batched_training": checkpoint.batched_training,
            "trace_level": checkpoint.trace_level,
            "slices": [],
            "checksums": {},
        }
        for piece in checkpoint.slices:
            name = f"users_{piece['lo']}_{piece['hi']}.pkl"
            meta["checksums"][name] = _write_verified(snapshot / name, _pickled(piece))
            meta["slices"].append({"lo": piece["lo"], "hi": piece["hi"], "file": name})
        if injected == "disk_full":
            raise OSError(
                errno.ENOSPC, f"injected disk_full while saving {snapshot.name}"
            )
        meta["checksums"]["coordinator.pkl"] = _write_verified(
            snapshot / "coordinator.pkl",
            _pickled(
                {"config": checkpoint.config, "coordinator": checkpoint.coordinator}
            ),
            corrupt=injected == "corrupt_checkpoint",
        )
        (snapshot / self.META).write_text(json.dumps(meta, indent=2))

        entries: List[Dict[str, Any]] = []
        if self.exists():
            entries = list(self._read_manifest().get("retained", []))
        entries.append({"dir": snapshot.name, "slot": checkpoint.slot})
        retained = self._retained(entries)
        manifest = {
            "format_version": checkpoint.format_version,
            "latest": snapshot.name,
            "retained": retained,
        }
        tmp = self.root / (self.MANIFEST + ".tmp")
        tmp.write_text(json.dumps(manifest, indent=2))
        os.replace(tmp, self.root / self.MANIFEST)
        keep = {entry["dir"] for entry in retained}
        for stale in self._snapshot_dirs():
            if stale.name not in keep:
                shutil.rmtree(stale, ignore_errors=True)

    def retained_slots(self) -> List[int]:
        """Slots of the snapshots the manifest currently retains."""
        if not self.exists():
            return []
        return [entry["slot"] for entry in self._read_manifest().get("retained", [])]

    def load(self) -> EngineCheckpoint:
        manifest = self._read_manifest()
        snapshot = self.root / manifest["latest"]
        meta = json.loads((snapshot / self.META).read_text())
        files: Dict[str, Any] = {}
        for name, expected in meta["checksums"].items():
            data = (snapshot / name).read_bytes()
            if hashlib.sha256(data).hexdigest() != expected:
                raise CheckpointError(
                    f"checkpoint snapshot {snapshot.name} is corrupt on disk: "
                    f"{name} does not match its recorded checksum"
                )
            files[name] = pickle.loads(data)
        head = files["coordinator.pkl"]
        return EngineCheckpoint(
            format_version=meta["format_version"],
            slot=meta["slot"],
            pending_arrivals=list(meta["pending_arrivals"]),
            global_ready=meta["global_ready"],
            config=head["config"],
            fast_forward=meta["fast_forward"],
            batched_training=meta["batched_training"],
            trace_level=meta["trace_level"],
            coordinator=head["coordinator"],
            slices=[files[entry["file"]] for entry in meta["slices"]],
        )


def _pickled(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _write_verified(path: Path, data: bytes, corrupt: bool = False) -> str:
    """Write ``data``, compare the read-back with it, return its sha256.

    ``corrupt`` is the injected ``corrupt_checkpoint`` fault: it damages
    the file between the write and the read-back.
    """
    with open(path, "wb") as handle:
        handle.write(data)
    if corrupt:
        _flip_bytes(path)
    if path.read_bytes() != data:
        raise CheckpointError(
            f"checkpoint snapshot {path.parent.name} failed write "
            f"verification: {path.name} does not read back bit-for-bit; "
            "the previous snapshot remains the loadable one"
        )
    return hashlib.sha256(data).hexdigest()


def _flip_bytes(path: Path, span: int = 64) -> None:
    """Invert the first ``span`` bytes of a file (injected corruption)."""
    data = bytearray(path.read_bytes())
    for index in range(min(span, len(data))):
        data[index] ^= 0xFF
    path.write_bytes(bytes(data))

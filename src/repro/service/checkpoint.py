"""Checkpoint subsystem: snapshot/restore with a bitwise resume contract.

A checkpoint captures everything a run has mutated — the coordinator-side
coupling state (parameter server, policy queues, lag estimates, the
Eq. (12) gap array, transport accounting, trace aggregates, the evaluation
cache) plus the per-user state (device/app/thermal/battery arrays, client
RNG generator states, momentum velocities).  Everything *static* — device
calibration, arrival schedules, data partitions — is rebuilt bitwise from the configuration by the existing
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
import logging
import os
import pickle
import shutil
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
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
    Union,
)

import numpy as np

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
#: v7: write-once vectors (``vectors.bin`` packs referenced across
#: snapshots), slices without base parameters, column logs.  v7 stores
#: written while the batched trainer existed also carry a meta flag and two
#: per-slice dicts of its train-ahead state; :meth:`CheckpointStore.load`
#: drops them when they are empty and refuses the store otherwise.
CHECKPOINT_FORMAT_VERSION = 7

#: One INFO record per save, one WARNING per failed verification.  Silent
#: unless the application configures a handler (the NullHandler keeps
#: ``logging.lastResort`` from printing the warnings to stderr).
logger = logging.getLogger(__name__)
logger.addHandler(logging.NullHandler())


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
    so references shared between them (the update log the server writes and
    the trace reads) are shared again in whatever :meth:`materialize`
    returns.  The pinned bases are factored out: the payload says which
    model *version* each user pinned, ``vectors`` holds each pinned version's
    parameter vector once, as the server handed it out — it rebinds and
    never mutates a historical vector, so the live run can reach neither
    part.  :class:`CheckpointStore` writes the bytes as they are; every
    :meth:`materialize` unpickles a fresh graph over fresh vector copies, so
    restores of one checkpoint never alias each other.  The other fields are
    a telemetry frame's progress scalars, read from the live core at capture
    so reporting never unpickles a snapshot.
    """

    payload: bytes
    vectors: Dict[int, np.ndarray]
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
        unit, vectors = core.checkpoint_unit()
        return cls(
            payload=_pickled(unit),
            vectors=vectors,
            timer_seconds=dict(timers.seconds),
            num_updates=core.server.num_updates(),
            accuracy=samples[-1].accuracy if samples else None,
            loss=samples[-1].loss if samples else None,
            queue_length=float(getattr(task_queue, "length", 0.0)),
            virtual_queue_length=float(getattr(virtual_queue, "length", 0.0)),
        )

    def materialize(self) -> "MaterializedCoordinator":
        """A fresh, un-aliased copy of the coupling state for one restore."""
        fields = dict(zip(self._FIELDS, pickle.loads(self.payload)))
        vectors = {}
        for version, vector in self.vectors.items():
            vectors[version] = vector.copy()
            vectors[version].flags.writeable = False
        fields["pinned_base"] = {
            user: vectors[version] for user, version in fields["pinned_base"].items()
        }
        return MaterializedCoordinator(**fields, timer_seconds=dict(self.timer_seconds))


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
    full_velocities = concat(("velocities",))

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
                "velocities": full_velocities[a:b],
            }
        )
    return out


class CheckpointStore:
    """On-disk layout of one run's checkpoints: a manifest plus snapshots
    (format v7; layout, retention and compaction in ``docs/service.md``).

    *What is immutable once produced is written once*: a client's momentum
    vector after ``r`` rounds and the parameter vector of model version ``v``
    never change, so ``(user, rounds_completed)`` and ``version`` name their
    content.  Every snapshot lands in its own fresh ``snapshot-<seq>/``:
    the *heads* ``users_<lo>_<hi>.pkl`` / ``coordinator.pkl`` (everything
    but the vectors, in full), the *pack* ``vectors.bin`` (the vectors no
    pack of the previous snapshot holds, end to end) and ``meta.json``
    (slot coordinates, a sha256 per head, and per vector the directory whose
    pack holds it, offset, length and sha256).  References come only from
    the snapshot this object last saved or loaded — the same run by
    construction — and a pack that a snapshot would use less than half of
    is re-written into its own, so a snapshot's packs stay within twice its
    vectors.

    Each file is serialised once; its checksum comes from those bytes, and
    the written file is read back and compared with them before
    ``manifest.json`` (which carries each retained ``meta.json``'s sha256)
    flips via an atomic rename.  Published files are never reopened for
    writing, so a crash, SIGKILL or detected corruption at *any* point
    mid-save leaves the previous snapshot the loadable one.  :meth:`load`
    checks every byte it uses against a recorded sha256 and raises
    :class:`CheckpointError` for anything unreadable.

    Retention: the newest ``keep_last`` snapshots plus every slot milestone
    (``slot % keep_every_slots == 0``).  Pruning runs after the flip and
    deletes only what no retained snapshot is or references; a crash
    mid-prune leaves extras for the next successful save to collect.

    Args:
        root: store directory.
        keep_last: how many most-recent snapshots to retain (≥ 1).
        keep_every_slots: additionally retain every snapshot whose slot is
            a multiple of this, or ``None`` for recency-only retention.
        fault_injector: optional :class:`~repro.faults.plan.FaultInjector`
            consulted once per save; an armed ``corrupt_checkpoint`` event
            flips bytes in the just-written ``coordinator.pkl`` (caught by
            verification), ``disk_full`` raises ``OSError(ENOSPC)`` after
            the slice heads and the pack, before the manifest flip.

    Attributes:
        last_save: what the last successful :meth:`save` did — ``slot``,
            ``snapshot``, ``bytes_written``, ``bytes_referenced`` (vectors
            left where an earlier snapshot wrote them), ``seconds`` and
            ``pruned`` directories; also logged at INFO.
    """

    MANIFEST = "manifest.json"
    SNAPSHOT_PREFIX = "snapshot-"
    META = "meta.json"
    PACK = "vectors.bin"
    HEAD = "coordinator.pkl"

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
        self.last_save: Optional[Dict[str, Any]] = None
        #: Where the snapshot last saved or loaded keeps each of its vectors:
        #: ``key -> (directory, offset, length, sha256)``.
        self._held: Dict[str, Tuple[str, int, int, str]] = {}
        #: Size of the pack of every directory ``_held`` names.
        self._pack_bytes: Dict[str, int] = {}

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
        """Apply the retention policy to ``[{"dir", "slot", ...}, ...]`` entries."""
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
        started = time.perf_counter()  # reprolint: allow(wall-clock): save-duration reporting, not sim state
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
            "trace_level": checkpoint.trace_level,
            "slices": [],
            "checksums": {},
        }

        def write_head(name: str, obj: Any, corrupt: bool = False) -> None:
            data = _pickled(obj)
            _write_verified(snapshot / name, [data], corrupt=corrupt)
            meta["checksums"][name] = hashlib.sha256(data).hexdigest()

        for piece in checkpoint.slices:
            name = f"users_{piece['lo']}_{piece['hi']}.pkl"
            write_head(name, {k: v for k, v in piece.items() if k != "velocities"})
            meta["slices"].append({"lo": piece["lo"], "hi": piece["hi"], "file": name})

        placed, packs, pack = self._place(_keyed_vectors(checkpoint), snapshot.name)
        if pack:
            _write_verified(snapshot / self.PACK, pack)
        meta["packs"] = {d: {"bytes": size, "rows": []} for d, size in packs.items()}
        for key, (directory, offset, length, sha) in placed.items():
            meta["packs"][directory]["rows"].append([key, offset, length, sha])
        if injected == "disk_full":
            raise OSError(
                errno.ENOSPC, f"injected disk_full while saving {snapshot.name}"
            )
        write_head(
            self.HEAD,
            {
                "config": checkpoint.config,
                "coordinator": replace(checkpoint.coordinator, vectors={}),
            },
            corrupt=injected == "corrupt_checkpoint",
        )
        meta_bytes = json.dumps(meta).encode()
        _write_verified(snapshot / self.META, [meta_bytes])

        entries: List[Dict[str, Any]] = []
        if self.exists():
            entries = list(self._read_manifest().get("retained", []))
        entries.append(
            {
                "dir": snapshot.name,
                "slot": checkpoint.slot,
                "meta_sha256": hashlib.sha256(meta_bytes).hexdigest(),
                "refs": sorted(set(packs) - {snapshot.name}),
            }
        )
        retained = self._retained(entries)
        manifest = {
            "format_version": checkpoint.format_version,
            "latest": snapshot.name,
            "retained": retained,
        }
        tmp = self.root / (self.MANIFEST + ".tmp")
        tmp.write_text(json.dumps(manifest, indent=2))
        os.replace(tmp, self.root / self.MANIFEST)
        self._held, self._pack_bytes = placed, packs
        self.last_save = {
            "slot": checkpoint.slot,
            "snapshot": snapshot.name,
            "bytes_written": sum(file.stat().st_size for file in snapshot.iterdir()),
            "bytes_referenced": sum(
                length for d, _, length, _ in placed.values() if d != snapshot.name
            ),
            "pruned": self._prune(retained),
            "seconds": time.perf_counter() - started,  # reprolint: allow(wall-clock): save-duration reporting, not sim state
        }
        logger.info(
            "checkpoint saved: slot=%(slot)d snapshot=%(snapshot)s "
            "bytes_written=%(bytes_written)d bytes_referenced=%(bytes_referenced)d "
            "seconds=%(seconds).4f pruned=%(pruned)s",
            self.last_save,
        )

    def _place(
        self, vectors: Dict[str, np.ndarray], own: str
    ) -> Tuple[Dict[str, Tuple[str, int, int, str]], Dict[str, int], List[memoryview]]:
        """Place the vectors of a new snapshot (directory ``own``): one the
        previous snapshot holds stays put unless that uses less than half of
        its pack; the rest become rows of the own pack.  Returns ``key ->
        (directory, offset, length, sha256)``, the size of every pack named,
        and the own pack's rows in write order."""
        held = {key: self._held[key] for key in vectors if key in self._held}
        used: Dict[str, int] = {}
        for directory, _, length, _ in held.values():
            used[directory] = used.get(directory, 0) + length
        placed = {
            key: entry
            for key, entry in held.items()
            if 2 * used[entry[0]] >= self._pack_bytes[entry[0]]
        }
        packs = {entry[0]: self._pack_bytes[entry[0]] for entry in placed.values()}
        pack: List[memoryview] = []
        size = 0
        for key, vector in vectors.items():
            if key not in placed:
                if vector.dtype != np.float64 or vector.ndim != 1:
                    raise TypeError(f"checkpoint vector {key} is not flat float64")
                row = memoryview(np.ascontiguousarray(vector)).cast("B")
                placed[key] = (own, size, len(row), hashlib.sha256(row).hexdigest())
                pack.append(row)
                size += len(row)
        if pack:
            packs[own] = size
        return placed, packs, pack

    def _prune(self, retained: List[Dict[str, Any]]) -> List[str]:
        """Delete what no retained snapshot needs; returns the directories
        removed.  A directory that is no longer a retained snapshot but whose
        pack one still references keeps only that pack."""
        snapshots = {entry["dir"] for entry in retained}
        referenced = {ref for entry in retained for ref in entry["refs"]}
        pruned = []
        for path in sorted(self._snapshot_dirs()):
            if path.name in snapshots:
                continue
            if path.name in referenced:
                for file in path.iterdir():
                    if file.name != self.PACK:
                        file.unlink(missing_ok=True)
            else:
                shutil.rmtree(path, ignore_errors=True)
                pruned.append(path.name)
        return pruned

    def retained_slots(self) -> List[int]:
        """Slots of the snapshots the manifest currently retains."""
        if not self.exists():
            return []
        return [entry["slot"] for entry in self._read_manifest().get("retained", [])]

    def load(self) -> EngineCheckpoint:
        manifest = self._read_manifest()
        name = manifest["latest"]
        entry = next((e for e in manifest["retained"] if e["dir"] == name), None)
        if entry is None:
            raise _unreadable(name, self.MANIFEST, "does not list the snapshot it names")
        meta_bytes = self._read_verified(name, self.META, entry["meta_sha256"])
        try:
            meta = json.loads(meta_bytes)
        except ValueError:
            raise _unreadable(name, self.META, "is not valid JSON") from None
        files = {
            file: pickle.loads(self._read_verified(name, file, sha))
            for file, sha in meta["checksums"].items()
        }
        vectors: Dict[str, np.ndarray] = {}
        held: Dict[str, Tuple[str, int, int, str]] = {}
        for directory, pack in meta["packs"].items():
            for key, offset, length, sha in pack["rows"]:
                held[key] = (directory, offset, length, sha)
            vectors.update(self._read_rows(name, directory, pack["rows"]))
        head = files[self.HEAD]
        slices = []
        train_ahead = bool(meta.get("batched_training"))
        for listed in meta["slices"]:
            piece = files[listed["file"]]
            for key in ("pending", "trained"):
                train_ahead |= bool(piece.pop(key, None))
            if train_ahead:
                raise ValueError(
                    f"checkpoint snapshot {name} holds batched-training "
                    "train-ahead state, which this version cannot resume: "
                    "every local round now runs serially at its completion slot"
                )
            piece["velocities"] = [
                vectors.get(f"v:{piece['lo'] + offset}:{client['rounds_completed']}")
                for offset, client in enumerate(piece["clients"])
            ]
            slices.append(piece)
        checkpoint = EngineCheckpoint(
            format_version=meta["format_version"],
            slot=meta["slot"],
            pending_arrivals=list(meta["pending_arrivals"]),
            global_ready=meta["global_ready"],
            config=head["config"],
            fast_forward=meta["fast_forward"],
            trace_level=meta["trace_level"],
            coordinator=replace(
                head["coordinator"],
                vectors={
                    int(key[2:]): vector
                    for key, vector in vectors.items()
                    if key.startswith("p:")
                },
            ),
            slices=slices,
        )
        self._held = held
        self._pack_bytes = {d: pack["bytes"] for d, pack in meta["packs"].items()}
        return checkpoint

    def _read_rows(
        self, snapshot: str, directory: str, rows: List[list]
    ) -> Dict[str, np.ndarray]:
        """The vectors ``snapshot`` keeps in ``directory``'s pack, each read
        where ``rows`` says it is and checked against its checksum."""
        file = f"{directory}/{self.PACK}"
        vectors = {}
        try:
            with open(self.root / file, "rb") as handle:
                for key, offset, length, sha in rows:
                    handle.seek(offset)
                    data = handle.read(length)
                    if len(data) != length or hashlib.sha256(data).hexdigest() != sha:
                        raise _unreadable(
                            snapshot,
                            file,
                            f"does not hold {key} as recorded ({length} bytes at "
                            f"{offset}, checksum mismatch or short read)",
                        )
                    vectors[key] = np.frombuffer(data, dtype=np.float64)
        except OSError as error:
            raise _unreadable(snapshot, file, f"cannot be read ({error})") from None
        return vectors

    def _read_verified(self, snapshot: str, name: str, sha256: str) -> bytes:
        """One whole file of a published snapshot, checked against its checksum."""
        try:
            data = (self.root / snapshot / name).read_bytes()
        except OSError as error:
            raise _unreadable(snapshot, name, f"cannot be read ({error})") from None
        if hashlib.sha256(data).hexdigest() != sha256:
            raise _unreadable(snapshot, name, "does not match its recorded checksum")
        return data


def _keyed_vectors(checkpoint: EngineCheckpoint) -> Dict[str, np.ndarray]:
    """Every vector of a checkpoint under the name of its content:
    ``p:<version>`` for a pinned parameter vector, ``v:<user>:<rounds>`` for
    a client's momentum vector after that many rounds."""
    vectors = {
        f"p:{version}": vector
        for version, vector in checkpoint.coordinator.vectors.items()
    }
    for piece in checkpoint.slices:
        for user, (client, velocity) in enumerate(
            zip(piece["clients"], piece["velocities"]), start=piece["lo"]
        ):
            if velocity is not None:
                vectors[f"v:{user}:{client['rounds_completed']}"] = velocity
    return vectors


def _unreadable(snapshot: str, name: str, problem: str) -> CheckpointError:
    """The error for a published snapshot that fails load verification."""
    message = f"checkpoint snapshot {snapshot} is corrupt on disk: {name} {problem}"
    logger.warning(message)
    return CheckpointError(message)


def _pickled(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


#: I/O buffer and read-back granularity of :func:`_write_verified`.
_VERIFY_CHUNK = 1 << 20


def _write_verified(path: Path, parts: Sequence[Any], corrupt: bool = False) -> None:
    """Write ``parts`` (bytes-like, end to end) and compare the read-back
    with them, a bounded chunk at a time.

    ``corrupt`` is the injected ``corrupt_checkpoint`` fault: it damages
    the file between the write and the read-back.
    """
    with open(path, "wb", buffering=_VERIFY_CHUNK) as handle:
        for part in parts:
            handle.write(part)
    if corrupt:
        _flip_bytes(path)
    with open(path, "rb", buffering=_VERIFY_CHUNK) as handle:
        # bytes(chunk): comparing bytes with a memoryview goes element by
        # element; the copy is bounded by the chunk size.
        intact = all(
            handle.read(len(chunk)) == bytes(chunk)
            for part in parts
            for chunk in _chunks(memoryview(part))
        ) and not handle.read(1)
    if not intact:
        message = (
            f"checkpoint snapshot {path.parent.name} failed write "
            f"verification: {path.name} does not read back bit-for-bit; "
            "the previous snapshot remains the loadable one"
        )
        logger.warning(message)
        raise CheckpointError(message)


def _chunks(view: memoryview) -> Iterator[memoryview]:
    for start in range(0, len(view), _VERIFY_CHUNK):
        yield view[start : start + _VERIFY_CHUNK]


def _flip_bytes(path: Path, span: int = 64) -> None:
    """Invert the first ``span`` bytes of a file (injected corruption)."""
    data = bytearray(path.read_bytes())
    for index in range(min(span, len(data))):
        data[index] ^= 0xFF
    path.write_bytes(bytes(data))

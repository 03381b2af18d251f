"""Streaming telemetry ingest: compact scalar frames at checkpoint boundaries.

A *frame* is a small JSON object of progress scalars — energy so far, update
count, latest accuracy/loss, queue backlogs — computed from an engine
checkpoint (or a finished result) without persisting or re-reading the full
snapshot.  The service's :class:`~repro.service.checkpoint.Checkpointer`
emits one frame per checkpoint into a :class:`TelemetrySink`, which appends
it to an NDJSON file (``telemetry.jsonl`` in the job directory) and
optionally into a :class:`~repro.metrics.store.MetricsStore` ``series``
table.  The HTTP layer tails that file for ``GET /jobs/<id>/telemetry/stream``.

Frame shape::

    {"seq": 3, "slot": 600, "total_slots": 10800,
     "energy_j": 1234.5, "num_updates": 42, "accuracy": 0.43, "loss": 1.9,
     "queue_length": 1.5, "virtual_queue_length": 200.1}

plus ``"final": true`` on the post-run frame.  ``seq`` increases by one per
emitted frame; ``slot`` is strictly increasing across a job's whole stream
even when the run itself replays slots — a chaos recovery or service retry
resumes from an earlier checkpoint and re-runs slots whose frames were
already emitted, and the recovery contract (``docs/faults.md``) makes the
replayed values bitwise-identical, so the sink simply drops them.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

if TYPE_CHECKING:
    from repro.metrics.store import MetricsStore
    from repro.service.checkpoint import EngineCheckpoint

__all__ = [
    "FRAME_METRICS",
    "TelemetrySink",
    "frame_metrics_from_checkpoint",
    "frame_metrics_from_result",
    "last_frame",
    "read_frames",
]

#: The scalar keys every frame carries (beyond seq/slot bookkeeping).
FRAME_METRICS = (
    "energy_j",
    "num_updates",
    "accuracy",
    "loss",
    "queue_length",
    "virtual_queue_length",
)


def frame_metrics_from_checkpoint(checkpoint: "EngineCheckpoint") -> Dict[str, Any]:
    """Progress scalars read straight out of an in-memory checkpoint."""
    energy_j = 0.0
    for piece in checkpoint.slices:
        accountant = piece["fleet"]["accountant"]
        energy_j += float(
            sum(
                (
                    accountant["idle_j"]
                    + accountant["app_j"]
                    + accountant["training_j"]
                    + accountant["corunning_j"]
                    + accountant["overhead_j"]
                ).tolist()
            )
        )
    coordinator = checkpoint.coordinator
    return {
        "energy_j": energy_j,
        "num_updates": coordinator.num_updates,
        "accuracy": coordinator.accuracy,
        "loss": coordinator.loss,
        "queue_length": coordinator.queue_length,
        "virtual_queue_length": coordinator.virtual_queue_length,
    }


def frame_metrics_from_result(result: Any) -> Dict[str, Any]:
    """The same scalars from a finished :class:`SimulationResult`."""
    return {
        "energy_j": result.total_energy_j(),
        "num_updates": result.num_updates,
        "accuracy": result.final_accuracy(),
        "loss": (
            result.accuracy.samples[-1].loss if result.accuracy.samples else None
        ),
        "queue_length": (
            float(result.queue_history[-1]) if result.queue_history else 0.0
        ),
        "virtual_queue_length": (
            float(result.virtual_queue_history[-1])
            if result.virtual_queue_history
            else 0.0
        ),
    }


class TelemetrySink:
    """Append-only NDJSON frame stream for one job, with monotonic slots.

    Callable on an :class:`EngineCheckpoint`, so it plugs straight into
    :class:`~repro.service.checkpoint.Checkpointer`'s ``telemetry`` hook.

    A fresh sink over an existing file (a service retry, a resume in a new
    process) recovers ``seq``/``slot`` from the file tail and keeps
    appending — replayed slots are dropped, so consumers always see one
    strictly-increasing stream per job regardless of how many recoveries
    happened behind it.

    Args:
        path: NDJSON file to append to (``None`` keeps frames in memory
            only — useful for engines running outside the service).
        store: optional :class:`MetricsStore` receiving each frame into
            its ``series`` table.
        spec_hash: the run's content hash (the store key); required when
            ``store`` is set.
        total_slots: run horizon, stamped into every frame.
    """

    def __init__(
        self,
        path: Union[None, str, Path] = None,
        store: Optional["MetricsStore"] = None,
        spec_hash: Optional[str] = None,
        total_slots: int = 0,
    ) -> None:
        if store is not None and not spec_hash:
            raise ValueError("a store-backed sink needs the run's spec_hash")
        self.path = None if path is None else Path(path)
        self.store = store
        self.spec_hash = spec_hash
        self.total_slots = int(total_slots)
        self._lock = threading.Lock()
        self._seq = -1  # guarded-by: _lock
        self._slot = -1  # guarded-by: _lock
        self._frame: Optional[Dict[str, Any]] = None  # guarded-by: _lock
        if self.path is not None and self.path.is_file():
            tail = last_frame(self.path)
            if tail is not None:
                self._seq = int(tail.get("seq", -1))
                self._slot = int(tail.get("slot", -1))
                self._frame = tail

    @property
    def last_frame(self) -> Optional[Dict[str, Any]]:
        """The most recent frame (emitted or recovered from the file tail)."""
        with self._lock:
            return None if self._frame is None else dict(self._frame)

    def __call__(self, checkpoint: "EngineCheckpoint") -> None:
        self.emit(checkpoint.slot, frame_metrics_from_checkpoint(checkpoint))

    def emit(
        self, slot: int, metrics: Dict[str, Any], final: bool = False
    ) -> Optional[Dict[str, Any]]:
        """Append one frame; returns it, or ``None`` if the slot replayed.

        Non-final frames must advance the slot strictly (recovery replay is
        dropped); the final frame may share the last checkpoint's slot.
        """
        slot = int(slot)
        with self._lock:
            if (slot < self._slot) if final else (slot <= self._slot):
                return None
            self._seq += 1
            frame: Dict[str, Any] = {
                "seq": self._seq,
                "slot": slot,
                "total_slots": self.total_slots,
            }
            frame.update(metrics)
            if final:
                frame["final"] = True
            self._slot = slot
            self._frame = frame
            if self.path is not None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(frame, default=str) + "\n")
            if self.store is not None and self.spec_hash:
                self.store.ingest_frame(self.spec_hash, frame)
        return dict(frame)


def read_frames(
    path: Union[str, Path], after_seq: int = -1
) -> List[Dict[str, Any]]:
    """All frames with ``seq > after_seq``, in file (= seq) order.

    Tolerates a torn trailing line: a frame is only returned once its line
    parses, so a reader polling a live file never sees a partial frame.
    """
    path = Path(path)
    if not path.is_file():
        return []
    frames: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                frame = json.loads(line)
            except ValueError:
                break  # torn tail: everything before it already collected
            if isinstance(frame, dict) and int(frame.get("seq", -1)) > after_seq:
                frames.append(frame)
    return frames


def last_frame(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The last complete frame in the file, without reading the whole file."""
    path = Path(path)
    try:
        size = os.path.getsize(path)
    except OSError:
        return None
    if size == 0:
        return None
    window = 64 * 1024
    with open(path, "rb") as handle:
        handle.seek(max(0, size - window))
        chunk = handle.read()
    for raw in reversed(chunk.splitlines()):
        raw = raw.strip()
        if not raw:
            continue
        try:
            frame = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            continue  # torn or truncated-at-window-edge line
        if isinstance(frame, dict) and "seq" in frame:
            return frame
    return None

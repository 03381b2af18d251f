"""The shared ``BENCH_*.json`` trajectory schema, with a legacy-tolerant loader.

Every CI smoke benchmark appends one *run record* per invocation to a
persistent ``benchmark_artifacts/BENCH_<name>.json`` trajectory.  Records
written through :func:`bench_record` share one schema::

    {"schema": 1, "benchmark": "training",
     "timestamp": "2026-08-08T12:00:00+00:00",   # CI env epoch when set
     "context": {"num_users": 25, "paper_scale": false, ...},
     "metrics": {"serial_s": 0.54, "speedup": 1.51, ...},
     "gates":   {"min_speedup": 1.2, ...}}

``context`` is the run's *identity* — the regression detector only compares
records whose context matches, so a trajectory that interleaves configs
(e.g. ``BENCH_chaos``'s paper-baseline and megafleet-1k entries) never
cross-compares.  ``metrics`` are the measured numbers; ``gates`` are the
thresholds the smoke script itself enforced (kept for the record, excluded
from delta checks).

Records written *before* this schema (flat dicts, nested measurement
sub-dicts, a ``gate`` sub-object mixing thresholds with measurements) are
normalized on load by :func:`normalize_run`: scalars whose key is a known
identity field become context, numbers elsewhere flatten to dotted-path
metrics, lists are skipped, and ``max_*``/``min_*`` keys under a
``gate``/``gates`` sub-object are treated as thresholds.  Old files stay
loadable forever; nothing rewrites them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "CONTEXT_KEYS",
    "MAX_TRAJECTORY_RUNS",
    "BenchRun",
    "append_trajectory",
    "bench_record",
    "bench_timestamp",
    "load_bench_file",
    "load_bench_dir",
]

BENCH_SCHEMA_VERSION = 1

#: Rolling-window cap every trajectory file enforces on append.
MAX_TRAJECTORY_RUNS = 200

#: Keys that identify *what ran* rather than *how it went*.  On legacy
#: records these route into ``context`` (at any nesting depth); the
#: regression detector groups runs by them.
CONTEXT_KEYS = frozenset(
    {
        "benchmark",
        "checkpoint_every",
        "corrupt_slot",
        "kill_slot",
        "midsize_slots",
        "midsize_users",
        "name",
        "num_users",
        "paper_scale",
        "policy",
        "scenario",
        "schema",
        "seed",
        "shards",
        "slots",
        "spec_hash",
        "stage",
        "state",
        "total_slots",
        "users",
        "workload",
    }
)

_SKIP_KEYS = frozenset({"timestamp"})


def bench_timestamp() -> str:
    """An ISO-8601 UTC timestamp, pinned by CI env when available.

    ``SOURCE_DATE_EPOCH`` (the reproducible-builds convention) or
    ``BENCH_EPOCH`` wins over the host clock, so a CI pipeline can stamp
    every artifact of one workflow run identically.
    """
    for name in ("SOURCE_DATE_EPOCH", "BENCH_EPOCH"):
        raw = os.environ.get(name)
        if raw:
            try:
                stamp = datetime.fromtimestamp(int(float(raw)), timezone.utc)
            except (ValueError, OverflowError, OSError):
                continue
            return stamp.isoformat(timespec="seconds")
    return datetime.now(timezone.utc).isoformat(  # reprolint: allow(wall-clock): artifact metadata, never feeds sim state
        timespec="seconds"
    )


def bench_record(
    benchmark: str,
    metrics: Mapping[str, Any],
    context: Optional[Mapping[str, Any]] = None,
    gates: Optional[Mapping[str, Any]] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """One normalized trajectory record (the shape the loader needs no
    heuristics for).  ``extra`` keys land at the top level — for fields a
    smoke script wants in the raw JSON (fired fault events, per-stage
    breakdowns) without making them comparable metrics."""
    record: Dict[str, Any] = {
        "schema": BENCH_SCHEMA_VERSION,
        "benchmark": str(benchmark),
        "timestamp": bench_timestamp(),
        "context": dict(context or {}),
        "metrics": {key: value for key, value in dict(metrics).items()},
        "gates": dict(gates or {}),
    }
    for key, value in dict(extra or {}).items():
        record.setdefault(key, value)
    return record


def append_trajectory(
    path: Union[str, Path],
    record: Mapping[str, Any],
    benchmark: Optional[str] = None,
    max_runs: int = MAX_TRAJECTORY_RUNS,
) -> Path:
    """Append one record to a trajectory file (atomic tmp+rename write).

    Creates the file (and parent directory) on first use; keeps at most
    ``max_runs`` newest records.  The file-level ``benchmark`` name is set
    on creation and preserved afterwards.
    """
    path = Path(path)
    payload: Dict[str, Any] = {"benchmark": benchmark or record.get("benchmark"), "runs": []}
    if path.is_file():
        try:
            existing = json.loads(path.read_text())
        except ValueError:
            existing = {}
        if isinstance(existing, dict) and isinstance(existing.get("runs"), list):
            payload = existing
    payload.setdefault("runs", []).append(dict(record))
    del payload["runs"][: -int(max_runs)]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
    os.replace(tmp, path)
    return path


@dataclass
class BenchRun:
    """One trajectory record in normalized form."""

    benchmark: str
    timestamp: Optional[str] = None
    context: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    gates: Dict[str, Any] = field(default_factory=dict)

    def group_key(self) -> Tuple:
        """Hashable identity: only runs sharing it are delta-compared."""
        return (
            self.benchmark,
            tuple(sorted((k, str(v)) for k, v in self.context.items())),
        )


def _flatten(
    prefix: str,
    value: Any,
    run: BenchRun,
    in_gate: bool = False,
) -> None:
    """Route one (possibly nested) legacy field into context/metrics/gates."""
    leaf = prefix.rsplit(".", 1)[-1]
    if leaf in _SKIP_KEYS:
        return
    if isinstance(value, dict):
        gate_scope = in_gate or leaf in ("gate", "gates")
        for key, child in sorted(value.items()):
            _flatten(f"{prefix}.{key}" if prefix else str(key), child, run, gate_scope)
        return
    if isinstance(value, list) or value is None:
        return  # event lists, per-stage sub-run lists: not comparable scalars
    if leaf in CONTEXT_KEYS:
        run.context[prefix] = value
        return
    if in_gate and leaf.startswith(("max_", "min_")):
        run.gates[prefix] = value
        return
    if isinstance(value, bool):
        run.metrics[prefix] = 1.0 if value else 0.0
    elif isinstance(value, (int, float)):
        run.metrics[prefix] = float(value)
    # other strings: neither identity nor measurement — dropped


def normalize_run(benchmark: str, payload: Mapping[str, Any]) -> BenchRun:
    """Normalize one record — new schema passthrough, legacy flattened."""
    run = BenchRun(benchmark=benchmark, timestamp=payload.get("timestamp"))
    if isinstance(payload.get("metrics"), dict):  # the bench_record schema
        context = payload.get("context")
        run.context = dict(context) if isinstance(context, dict) else {}
        gates = payload.get("gates")
        run.gates = dict(gates) if isinstance(gates, dict) else {}
        for key, value in sorted(payload["metrics"].items()):
            if isinstance(value, bool):
                run.metrics[key] = 1.0 if value else 0.0
            elif isinstance(value, (int, float)):
                run.metrics[key] = float(value)
        return run
    for key, value in sorted(payload.items()):
        _flatten(str(key), value, run)
    return run


def load_bench_file(path: Union[str, Path]) -> List[BenchRun]:
    """All of one trajectory file's records, normalized, oldest first."""
    path = Path(path)
    payload = json.loads(path.read_text())
    benchmark = str(payload.get("benchmark") or path.stem)
    runs = payload.get("runs")
    if not isinstance(runs, list):
        return []
    return [normalize_run(benchmark, run) for run in runs if isinstance(run, dict)]


def load_bench_dir(
    directory: Union[str, Path], pattern: str = "BENCH_*.json"
) -> Dict[str, List[BenchRun]]:
    """``{file name: normalized runs}`` for every trajectory in a directory."""
    directory = Path(directory)
    out: Dict[str, List[BenchRun]] = {}
    for path in sorted(directory.glob(pattern)):
        try:
            out[path.name] = load_bench_file(path)
        except (ValueError, OSError):
            out[path.name] = []  # unreadable trajectory: visible as empty
    return out

"""The ``BENCH_*.json`` trajectory schema and its loader.

A trajectory file holds a ``runs`` list of *run records*, oldest first.
Every record carries one schema::

    {"schema": 1, "benchmark": "training",
     "timestamp": "2026-08-08T12:00:00+00:00",
     "context": {"num_users": 25, "paper_scale": false, ...},
     "metrics": {"serial_s": 0.54, "speedup": 1.51, ...},
     "gates":   {"min_speedup": 1.2, ...}}

``context`` is the run's *identity* — the regression detector only compares
records whose context matches, so a trajectory that interleaves configs
(e.g. ``BENCH_chaos``'s paper-baseline and megafleet-1k entries) never
cross-compares.  ``metrics`` are the measured numbers; ``gates`` are the
thresholds the measurement enforced (kept for the record, excluded from
delta checks).  Any other top-level key (fired fault events, per-stage
lists) rides along in the raw JSON and is never compared.

A record without ``"schema": 1`` is refused; files without a ``runs`` list
(PR evidence records) load as empty.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchRun",
    "load_bench_file",
    "load_bench_dir",
    "normalize_run",
]

BENCH_SCHEMA_VERSION = 1


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


def normalize_run(benchmark: str, payload: Mapping[str, Any]) -> BenchRun:
    """One schema-1 record as a :class:`BenchRun` (numeric metrics only)."""
    if payload.get("schema") != BENCH_SCHEMA_VERSION or not isinstance(
        payload.get("metrics"), dict
    ):
        raise ValueError(
            f"{benchmark}: not a schema-{BENCH_SCHEMA_VERSION} record "
            f"(keys {sorted(payload)})"
        )
    context = payload.get("context")
    gates = payload.get("gates")
    run = BenchRun(
        benchmark=benchmark,
        timestamp=payload.get("timestamp"),
        context=dict(context) if isinstance(context, dict) else {},
        gates=dict(gates) if isinstance(gates, dict) else {},
    )
    for key, value in sorted(payload["metrics"].items()):
        if isinstance(value, bool):
            run.metrics[key] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)):
            run.metrics[key] = float(value)
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

"""Regression detection over BENCH trajectories and store headline metrics.

Two sources, one report:

* :func:`detect_bench_regressions` — loads every ``BENCH_*.json``
  trajectory (via the :mod:`repro.metrics.bench` loader),
  groups records by their context (scenario/config identity), and inside
  each group compares the newest record against the *median* of the
  earlier ones, metric by metric.
* :func:`detect_store_regressions` — groups a
  :class:`~repro.metrics.store.MetricsStore`'s run rows by run identity
  (scenario, label, policy, seed, shards) and compares the
  newest ingest against the median of the earlier ones — the
  version-to-version trajectory of one experiment cell.

Per-metric tolerances carry a *direction*: wall-clock metrics only regress
upward (CI machines are noisy, so their relative tolerance is generous);
accuracy and speedup only regress downward; deterministic metrics (energy,
update counts) regress in *either* direction with a tight tolerance —
a "faster but different answer" drift is a determinism bug, not a win.

``repro-sim metrics regress`` wraps both detectors with a nonzero exit
when anything trips, so CI can gate on it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.metrics.bench import BenchRun, load_bench_dir
from repro.metrics.query import version_history
from repro.metrics.store import MetricsStore

__all__ = [
    "DEFAULT_TOLERANCES",
    "Regression",
    "Tolerance",
    "detect_bench_regressions",
    "detect_store_regressions",
    "format_regressions",
    "parse_tolerance_overrides",
    "tolerance_for",
]


@dataclass(frozen=True)
class Tolerance:
    """Allowed delta for one metric: ``abs_tol + rel * |baseline|``.

    ``direction`` names which way is *worse*: ``"high"`` (wall-clock,
    failure counts), ``"low"`` (accuracy, speedup), or ``"both"``
    (deterministic quantities where any drift is suspect).
    """

    rel: float = 0.5
    abs_tol: float = 0.0
    direction: str = "both"

    def __post_init__(self) -> None:
        if self.direction not in ("high", "low", "both"):
            raise ValueError(f"unknown tolerance direction {self.direction!r}")

    def allowed(self, baseline: float) -> float:
        return self.abs_tol + self.rel * abs(baseline)


#: First fnmatch pattern (against the dotted metric name, then its last
#: component) wins.  Appear-in-order: most specific first.
DEFAULT_TOLERANCES: Tuple[Tuple[str, Tolerance], ...] = (
    # Bitwise-determinism sentinels: any growth is a bug.
    ("max_divergence", Tolerance(rel=0.0, abs_tol=1e-12, direction="high")),
    ("mismatches", Tolerance(rel=0.0, abs_tol=0.0, direction="high")),
    ("failures", Tolerance(rel=0.0, abs_tol=0.0, direction="high")),
    ("reproducible", Tolerance(rel=0.0, abs_tol=0.0, direction="low")),
    ("attempts", Tolerance(rel=0.0, abs_tol=0.5, direction="high")),
    # Deterministic simulation outputs: tight, direction-free.
    ("*energy*", Tolerance(rel=0.01, direction="both")),
    ("*updates*", Tolerance(rel=0.01, direction="both")),
    ("*carbon*", Tolerance(rel=0.01, direction="both")),
    ("*queue*", Tolerance(rel=0.05, direction="both")),
    ("*schedule_fraction*", Tolerance(rel=0.05, direction="both")),
    # Model quality: only a drop is a regression.
    ("*accuracy*", Tolerance(rel=0.0, abs_tol=0.02, direction="low")),
    ("*speedup*", Tolerance(rel=0.5, direction="low")),
    # Wall-clock: CI hosts are noisy; only flag large slowdowns.
    ("*_s", Tolerance(rel=2.0, direction="high")),
    ("*share*", Tolerance(rel=0.5, direction="both")),
)

_FALLBACK = Tolerance(rel=1.0, direction="both")


def tolerance_for(
    metric: str,
    tolerances: Optional[Sequence[Tuple[str, Tolerance]]] = None,
) -> Tolerance:
    """The first matching tolerance for a (possibly dotted) metric name."""
    name = metric.lower()
    leaf = name.rsplit(".", 1)[-1]
    for pattern, tolerance in tolerances if tolerances is not None else DEFAULT_TOLERANCES:
        if fnmatch(name, pattern) or fnmatch(leaf, pattern):
            return tolerance
    return _FALLBACK


def parse_tolerance_overrides(
    specs: Sequence[str],
) -> List[Tuple[str, Tolerance]]:
    """Parse CLI ``PATTERN=REL[:ABS[:DIRECTION]]`` overrides.

    Overrides are prepended to the default table, so they win for every
    metric they match — e.g. ``--tolerance '*_s=5.0'`` or
    ``--tolerance 'speedup=0.8:0:low'``.
    """
    table: List[Tuple[str, Tolerance]] = []
    for spec in specs:
        pattern, _, value = spec.partition("=")
        if not pattern or not value:
            raise ValueError(f"bad tolerance override {spec!r} (PATTERN=REL[:ABS[:DIR]])")
        parts = value.split(":")
        rel = float(parts[0])
        abs_tol = float(parts[1]) if len(parts) > 1 and parts[1] else 0.0
        direction = parts[2] if len(parts) > 2 and parts[2] else "both"
        table.append((pattern.lower(), Tolerance(rel=rel, abs_tol=abs_tol, direction=direction)))
    return table + list(DEFAULT_TOLERANCES)


@dataclass(frozen=True)
class Regression:
    """One metric beyond tolerance: where, what, and by how much."""

    source: str  # "bench:<file>" or "store"
    group: str  # human-readable identity of the compared trajectory
    metric: str
    baseline: float
    latest: float
    allowed: float
    direction: str

    @property
    def delta(self) -> float:
        return self.latest - self.baseline

    def describe(self) -> str:
        pct = (
            f" ({100.0 * self.delta / abs(self.baseline):+.1f}%)"
            if self.baseline
            else ""
        )
        return (
            f"{self.source} [{self.group}] {self.metric}: "
            f"{self.baseline:g} -> {self.latest:g}{pct}, "
            f"allowed ±{self.allowed:g} ({self.direction})"
        )


def _check(
    source: str,
    group: str,
    metric: str,
    baseline: float,
    latest: float,
    tolerance: Tolerance,
) -> Optional[Regression]:
    allowed = tolerance.allowed(baseline)
    worse_high = (latest - baseline) > allowed
    worse_low = (baseline - latest) > allowed
    flagged = (
        worse_high
        if tolerance.direction == "high"
        else worse_low
        if tolerance.direction == "low"
        else (worse_high or worse_low)
    )
    if not flagged:
        return None
    return Regression(
        source=source,
        group=group,
        metric=metric,
        baseline=baseline,
        latest=latest,
        allowed=allowed,
        direction=tolerance.direction,
    )


def _group_label(context: Mapping[str, Any]) -> str:
    if not context:
        return "default"
    return " ".join(f"{k}={v}" for k, v in sorted(context.items()))


def _compare_group(
    source: str,
    group: str,
    history: Sequence[Mapping[str, float]],
    tolerances: Optional[Sequence[Tuple[str, Tolerance]]],
) -> Tuple[List[Regression], int]:
    """Latest record vs the median of the earlier ones; (findings, checks)."""
    latest = history[-1]
    earlier = history[:-1]
    regressions: List[Regression] = []
    checked = 0
    for metric in sorted(latest):
        value = latest[metric]
        baselines = [
            record[metric]
            for record in earlier
            if record.get(metric) is not None
        ]
        if value is None or not baselines:
            continue  # metric newly added (or newly absent): nothing to compare
        checked += 1
        finding = _check(
            source,
            group,
            metric,
            statistics.median(baselines),
            float(value),
            tolerance_for(metric, tolerances),
        )
        if finding is not None:
            regressions.append(finding)
    return regressions, checked


def detect_bench_regressions(
    artifact_dir: Union[str, Path],
    tolerances: Optional[Sequence[Tuple[str, Tolerance]]] = None,
) -> Tuple[List[Regression], Dict[str, int]]:
    """Scan every ``BENCH_*.json`` trajectory in a directory.

    Returns ``(regressions, stats)`` where stats counts the files, context
    groups with history (>= 2 records), and metric comparisons performed —
    so a CI log shows how much was actually gated, not just "no findings".
    """
    regressions: List[Regression] = []
    stats = {"files": 0, "groups": 0, "checks": 0}
    for file_name, runs in load_bench_dir(artifact_dir).items():
        stats["files"] += 1
        groups: Dict[Tuple, List[BenchRun]] = {}
        for run in runs:
            groups.setdefault(run.group_key(), []).append(run)
        for key, group_runs in sorted(groups.items()):
            if len(group_runs) < 2:
                continue  # no history to regress against
            stats["groups"] += 1
            found, checked = _compare_group(
                f"bench:{file_name}",
                _group_label(group_runs[-1].context),
                [run.metrics for run in group_runs],
                tolerances,
            )
            regressions.extend(found)
            stats["checks"] += checked
    return regressions, stats


#: Store columns the version-to-version detector compares.
STORE_METRICS = (
    "energy_j",
    "final_accuracy",
    "best_accuracy",
    "num_updates",
    "mean_queue_length",
    "mean_virtual_queue_length",
    "schedule_fraction",
    "wall_time_s",
    "carbon_g",
)


def detect_store_regressions(
    store: MetricsStore,
    tolerances: Optional[Sequence[Tuple[str, Tolerance]]] = None,
) -> Tuple[List[Regression], Dict[str, int]]:
    """Compare each run identity's newest ingest against its history."""
    regressions: List[Regression] = []
    stats = {"groups": 0, "checks": 0}
    for key, history in sorted(
        version_history(store, metrics=STORE_METRICS).items(),
        key=lambda item: str(item[0]),
    ):
        if len(history) < 2:
            continue
        stats["groups"] += 1
        scenario, label, policy, seed, shards = key
        group = (
            f"{scenario or label or '?'} policy={policy} seed={seed} "
            f"shards={shards}"
        )
        found, checked = _compare_group(
            "store",
            group,
            [
                {metric: entry.get(metric) for metric in STORE_METRICS}
                for entry in history
            ],
            tolerances,
        )
        regressions.extend(found)
        stats["checks"] += checked
    return regressions, stats


def format_regressions(regressions: Sequence[Regression]) -> str:
    if not regressions:
        return "no regressions beyond tolerance"
    lines = [f"{len(regressions)} regression(s) beyond tolerance:"]
    lines += [f"  - {finding.describe()}" for finding in regressions]
    return "\n".join(lines)

"""Regression detection over a metrics store's headline metrics.

:func:`detect_store_regressions` groups a
:class:`~repro.metrics.store.MetricsStore`'s run rows by run identity
(scenario, label, policy, seed, shards) and compares the newest ingest
against the *median* of the earlier ones, metric by metric — the
version-to-version trajectory of one experiment cell.

Per-metric tolerances carry a *direction*: wall-clock only regresses
upward (CI machines are noisy, so its relative tolerance is generous);
accuracy only regresses downward; deterministic metrics (energy, update
counts, queues) regress in *either* direction with a tight tolerance —
a "faster but different answer" drift is a determinism bug, not a win.

``repro-sim metrics regress --store DB`` wraps the detector with a nonzero
exit when anything trips, so CI can gate on it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.query import version_history
from repro.metrics.store import MetricsStore

__all__ = [
    "DEFAULT_TOLERANCES",
    "Regression",
    "Tolerance",
    "detect_store_regressions",
    "format_regressions",
    "parse_tolerance_overrides",
    "tolerance_for",
]


@dataclass(frozen=True)
class Tolerance:
    """Allowed delta for one metric: ``abs_tol + rel * |baseline|``.

    ``direction`` names which way is *worse*: ``"high"`` (wall-clock),
    ``"low"`` (accuracy), or ``"both"`` (deterministic quantities where any
    drift is suspect).  ``rel`` and ``abs_tol`` are finite and non-negative.
    """

    rel: float = 0.5
    abs_tol: float = 0.0
    direction: str = "both"

    def __post_init__(self) -> None:
        if self.direction not in ("high", "low", "both"):
            raise ValueError(f"unknown tolerance direction {self.direction!r}")
        for name in ("rel", "abs_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(
                    f"tolerance {name} must be finite and non-negative, got {value!r}"
                )

    def allowed(self, baseline: float) -> float:
        return self.abs_tol + self.rel * abs(baseline)


#: First fnmatch pattern against the metric name wins; every name of
#: :data:`STORE_METRICS` matches one.
DEFAULT_TOLERANCES: Tuple[Tuple[str, Tolerance], ...] = (
    # Deterministic simulation outputs: tight, direction-free.
    ("*energy*", Tolerance(rel=0.01, direction="both")),
    ("*updates*", Tolerance(rel=0.01, direction="both")),
    ("*carbon*", Tolerance(rel=0.01, direction="both")),
    ("*queue*", Tolerance(rel=0.05, direction="both")),
    ("*schedule_fraction*", Tolerance(rel=0.05, direction="both")),
    # Model quality: only a drop is a regression.
    ("*accuracy*", Tolerance(rel=0.0, abs_tol=0.02, direction="low")),
    # Wall-clock: CI hosts are noisy; only flag large slowdowns.
    ("*_s", Tolerance(rel=2.0, direction="high")),
)


def tolerance_for(
    metric: str,
    tolerances: Optional[Sequence[Tuple[str, Tolerance]]] = None,
) -> Tolerance:
    """The first matching tolerance for a metric name."""
    name = metric.lower()
    for pattern, tolerance in tolerances if tolerances is not None else DEFAULT_TOLERANCES:
        if fnmatch(name, pattern):
            return tolerance
    raise LookupError(f"no tolerance pattern matches metric {metric!r}")


def parse_tolerance_overrides(
    specs: Sequence[str],
) -> List[Tuple[str, Tolerance]]:
    """Parse CLI ``PATTERN=REL[:ABS[:DIRECTION]]`` overrides.

    Overrides are prepended to the default table, so they win for every
    metric they match — e.g. ``--tolerance '*_s=5.0'`` or
    ``--tolerance 'final_accuracy=0:0.05:low'``.
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
            f"[{self.group}] {self.metric}: "
            f"{self.baseline:g} -> {self.latest:g}{pct}, "
            f"allowed ±{self.allowed:g} ({self.direction})"
        )


def _check(
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
        group=group,
        metric=metric,
        baseline=baseline,
        latest=latest,
        allowed=allowed,
        direction=tolerance.direction,
    )


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
    """Compare each run identity's newest ingest against its history.

    Returns ``(regressions, stats)`` where stats counts the identities with
    history (>= 2 ingests) and the metric comparisons performed — so a CI
    log shows how much was actually gated, not just "no findings".
    """
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
        latest, earlier = history[-1], history[:-1]
        for metric in sorted(STORE_METRICS):
            value = latest[metric]
            baselines = [entry[metric] for entry in earlier if entry[metric] is not None]
            if value is None or not baselines:
                continue  # metric newly recorded (or newly absent): nothing to compare
            stats["checks"] += 1
            finding = _check(
                group,
                metric,
                statistics.median(baselines),
                float(value),
                tolerance_for(metric, tolerances),
            )
            if finding is not None:
                regressions.append(finding)
    return regressions, stats


def format_regressions(regressions: Sequence[Regression]) -> str:
    if not regressions:
        return "no regressions beyond tolerance"
    lines = [f"{len(regressions)} regression(s) beyond tolerance:"]
    lines += [f"  - {finding.describe()}" for finding in regressions]
    return "\n".join(lines)

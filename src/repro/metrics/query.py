"""Cross-run queries over a :class:`~repro.metrics.store.MetricsStore`.

The comparison shapes the paper's analysis needs, computed from persisted
rows instead of in-memory summary lists: a scenario×policy pivot of any
headline metric, per-policy trade-off deltas against a baseline policy,
and seed spread per (scenario, policy) cell.  Everything returns plain
dicts/lists so the CLI, the dashboard, and tests consume one shape.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.metrics.store import MetricsStore

__all__ = [
    "headline_pivot",
    "store_summary",
    "version_history",
]

#: Rows with no scenario (ad-hoc sweeps) group under this pivot key.
ADHOC = "(ad-hoc)"


def _scenario_key(row: Dict[str, Any]) -> str:
    return row.get("scenario") or ADHOC


def headline_pivot(
    store: MetricsStore, metric: str = "energy_kj"
) -> Dict[str, Dict[str, float]]:
    """``{scenario: {policy: value}}`` for one headline metric.

    Multiple rows in one cell (several seeds, several versions) average.
    """
    cells: Dict[str, Dict[str, List[float]]] = {}
    for row in store.runs():
        value = row.get(metric)
        if value is None or row.get("policy") is None:
            continue
        cells.setdefault(_scenario_key(row), {}).setdefault(
            str(row["policy"]), []
        ).append(float(value))
    return {
        scenario: {
            policy: sum(values) / len(values) for policy, values in policies.items()
        }
        for scenario, policies in cells.items()
    }


def version_history(
    store: MetricsStore,
    metrics: Sequence[str] = ("energy_j", "final_accuracy", "num_updates"),
) -> Dict[Tuple, List[Dict[str, Any]]]:
    """Rows grouped by run identity, ingest order — the regression shape.

    The identity key is ``(scenario, label, policy, seed, shards)``: rows that differ only by package version (hence by spec
    hash) line up as one trajectory.  Values dicts carry ``spec_hash``,
    ``repro_version``, ``ingested_at`` and the requested metrics.
    """
    groups: Dict[Tuple, List[Dict[str, Any]]] = {}
    for row in store.runs():
        key = (
            row.get("scenario"),
            row.get("label"),
            row.get("policy"),
            row.get("seed"),
            row.get("shards"),
        )
        entry = {
            "spec_hash": row["spec_hash"],
            "repro_version": row.get("repro_version"),
            "ingested_at": row.get("ingested_at"),
        }
        for metric in metrics:
            entry[metric] = row.get(metric)
        groups.setdefault(key, []).append(entry)
    return groups


def store_summary(store: MetricsStore) -> Dict[str, Any]:
    """Counts for banners and dashboards."""
    return {
        "runs": store.count_runs(),
        "series_points": store.count_series(),
        "scenarios": store.scenarios(),
        "policies": store.policies(),
    }

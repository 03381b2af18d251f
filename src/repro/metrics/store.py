"""Append-only sqlite run store keyed by :class:`RunSpec` content hash.

One ``runs`` row per executed spec (identity columns + headline metrics),
plus a ``series`` table of per-checkpoint scalar frames for the same hash.
The store is *derived observability data*: rows are computed from finished
summaries and checkpoint frames, and nothing in the simulation ever reads
them back — deleting the store loses history, never correctness.

Concurrency: every operation opens a fresh connection with a busy timeout
and commits in one transaction, so many processes (suite workers, service
worker threads, the CLI) can ingest into one file concurrently — sqlite
serializes the writes.  Idempotency: ``runs`` upserts on ``spec_hash`` and
``series`` upserts on ``(spec_hash, slot, metric)``, so re-ingesting the
same run (cache hits, chaos-recovery frame replay) never duplicates rows.

The in-memory path (``":memory:"``) keeps one persistent connection under
a lock instead — a fresh connection per operation would see an empty
database every time.
"""

from __future__ import annotations

import re
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro import __version__ as REPRO_VERSION

if TYPE_CHECKING:
    from repro.analysis.runner import RunSpec, RunSummary

__all__ = ["HEADLINE_METRICS", "MetricsStore", "as_store", "scenario_from_label"]

#: ``RunSummary`` fields persisted as ``runs`` columns (all REAL except
#: ``num_updates``/``decision_evaluations``).  A store created while runs
#: also reported ``comm_failures`` keeps that column; inserts name their
#: columns, so it stays NULL in new rows.
HEADLINE_METRICS = (
    "energy_j",
    "energy_kj",
    "final_accuracy",
    "best_accuracy",
    "num_updates",
    "decision_evaluations",
    "mean_queue_length",
    "mean_virtual_queue_length",
    "final_virtual_queue_length",
    "schedule_fraction",
    "comm_bytes_mb",
    "mean_final_battery_soc",
    "wall_time_s",
    "carbon_g",
)

_IDENTITY_COLUMNS = (
    "scenario",
    "policy",
    "label",
    "seed",
    "shards",
    "repro_version",
)

#: Frame keys that are bookkeeping, not series metrics.
_FRAME_BOOKKEEPING = frozenset({"seq", "slot", "total_slots", "final", "state", "event"})

_SCENARIO_LABEL = re.compile(r"^scenario:(?P<name>[^\[\]]+)\[")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    spec_hash TEXT PRIMARY KEY,
    scenario TEXT,
    policy TEXT,
    label TEXT,
    seed INTEGER,
    shards INTEGER,
    repro_version TEXT,
    energy_j REAL,
    energy_kj REAL,
    final_accuracy REAL,
    best_accuracy REAL,
    num_updates INTEGER,
    decision_evaluations INTEGER,
    mean_queue_length REAL,
    mean_virtual_queue_length REAL,
    final_virtual_queue_length REAL,
    schedule_fraction REAL,
    comm_bytes_mb REAL,
    mean_final_battery_soc REAL,
    wall_time_s REAL,
    carbon_g REAL,
    ingested_at REAL
);
CREATE TABLE IF NOT EXISTS series (
    spec_hash TEXT NOT NULL,
    slot INTEGER NOT NULL,
    metric TEXT NOT NULL,
    value REAL,
    PRIMARY KEY (spec_hash, slot, metric)
);
CREATE INDEX IF NOT EXISTS idx_runs_scenario ON runs (scenario, policy);
CREATE INDEX IF NOT EXISTS idx_series_metric ON series (spec_hash, metric, slot);
"""


def scenario_from_label(label: Optional[str]) -> Optional[str]:
    """The scenario name out of a ``scenario:<name>[<policy>]`` run label."""
    if not label:
        return None
    match = _SCENARIO_LABEL.match(label)
    return match.group("name") if match else None


class MetricsStore:
    """Queryable run store over one sqlite database file.

    Args:
        path: database file path (created, including parents, on first
            use), or ``":memory:"`` for an ephemeral in-process store.
    """

    def __init__(self, path: Union[str, Path] = ":memory:") -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        # Write-once in __init__; the lock serializes *transactions* on the
        # shared in-memory connection, not access to the attribute itself.
        self._memory_conn: Optional[sqlite3.Connection] = None
        if self.path == ":memory:":
            self._memory_conn = sqlite3.connect(":memory:", check_same_thread=False)
            self._memory_conn.row_factory = sqlite3.Row
        else:
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as conn:
            conn.executescript(_SCHEMA)

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """One transaction on a per-operation connection (or the shared
        in-memory one)."""
        if self._memory_conn is not None:
            with self._lock:
                try:
                    yield self._memory_conn
                    self._memory_conn.commit()
                except BaseException:
                    self._memory_conn.rollback()
                    raise
            return
        conn = sqlite3.connect(self.path, timeout=30.0)
        conn.row_factory = sqlite3.Row
        try:
            with conn:  # one transaction; commits on success, rolls back on error
                yield conn
        finally:
            conn.close()

    # -- ingest ------------------------------------------------------------------

    def ingest_run(
        self,
        summary: "RunSummary",
        spec: Optional["RunSpec"] = None,
        scenario: Optional[str] = None,
    ) -> str:
        """Upsert one finished run's headline metrics; returns the spec hash.

        Identity columns the caller cannot supply (no ``spec``, no explicit
        ``scenario``) are left as they are on re-ingest, so annotating a
        previously-ingested summary (e.g. with carbon) never erases the
        seed/shards recorded at first ingest.  ``ingested_at`` is
        likewise set once, at first ingest.
        """
        if scenario is None:
            scenario = scenario_from_label(summary.label)
        seed = shards = None
        if spec is not None:
            seed = spec.config.get("seed", 0)
            shards = spec.shards
        row: Dict[str, Any] = {
            "spec_hash": summary.spec_hash,
            "scenario": scenario,
            "policy": summary.policy,
            "label": summary.label,
            "seed": seed,
            "shards": shards,
            "repro_version": REPRO_VERSION,
            "ingested_at": time.time(),  # reprolint: allow(wall-clock): store bookkeeping, never feeds sim state
        }
        for name in HEADLINE_METRICS:
            row[name] = getattr(summary, name, None)
        columns = list(row)
        keep_once = set(_IDENTITY_COLUMNS) | {"ingested_at"}
        updates = ", ".join(
            f"{c}=COALESCE(runs.{c}, excluded.{c})"
            if c in keep_once
            else (
                f"{c}=COALESCE(excluded.{c}, runs.{c})"
                if c == "carbon_g"
                else f"{c}=excluded.{c}"
            )
            for c in columns
            if c != "spec_hash"
        )
        sql = (
            f"INSERT INTO runs ({', '.join(columns)}) "
            f"VALUES ({', '.join('?' for _ in columns)}) "
            f"ON CONFLICT(spec_hash) DO UPDATE SET {updates}"
        )
        with self._connect() as conn:
            conn.execute(sql, [row[c] for c in columns])
        return summary.spec_hash

    def ingest_frame(self, spec_hash: str, frame: Mapping[str, Any]) -> int:
        """Upsert one telemetry frame's scalar metrics into ``series``.

        Every numeric, non-bookkeeping key becomes a ``(slot, metric)``
        point; ``None`` values (e.g. accuracy before the first eval) are
        skipped.  Returns the number of points written.
        """
        slot = int(frame["slot"])
        points = [
            (spec_hash, slot, key, float(value))
            for key, value in frame.items()
            if key not in _FRAME_BOOKKEEPING
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
        ]
        if points:
            with self._connect() as conn:
                conn.executemany(
                    "INSERT OR REPLACE INTO series (spec_hash, slot, metric, value) "
                    "VALUES (?, ?, ?, ?)",
                    points,
                )
        return len(points)

    # -- queries -----------------------------------------------------------------

    def run(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        """One run row as a plain dict, or ``None``."""
        with self._connect() as conn:
            cursor = conn.execute("SELECT * FROM runs WHERE spec_hash = ?", (spec_hash,))
            row = cursor.fetchone()
        return dict(row) if row is not None else None

    def runs(
        self,
        scenario: Optional[str] = None,
        policy: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Run rows matching the filters, oldest ingest first."""
        clauses: List[str] = []
        params: List[Any] = []
        for column, value in (
            ("scenario", scenario),
            ("policy", policy),
            ("seed", seed),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        with self._connect() as conn:
            cursor = conn.execute(
                f"SELECT * FROM runs{where} ORDER BY ingested_at, spec_hash", params
            )
            rows = cursor.fetchall()
        return [dict(row) for row in rows]

    def count_runs(self) -> int:
        with self._connect() as conn:
            return int(conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0])

    def count_series(self) -> int:
        with self._connect() as conn:
            return int(conn.execute("SELECT COUNT(*) FROM series").fetchone()[0])

    def scenarios(self) -> List[str]:
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT DISTINCT scenario FROM runs "
                "WHERE scenario IS NOT NULL ORDER BY scenario"
            ).fetchall()
        return [row[0] for row in rows]

    def policies(self) -> List[str]:
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT DISTINCT policy FROM runs WHERE policy IS NOT NULL ORDER BY policy"
            ).fetchall()
        return [row[0] for row in rows]

    def series(
        self, spec_hash: str, metric: Optional[str] = None
    ) -> Dict[str, List[Tuple[int, float]]]:
        """Per-metric ``[(slot, value), ...]`` series for one run."""
        sql = "SELECT metric, slot, value FROM series WHERE spec_hash = ?"
        params: List[Any] = [spec_hash]
        if metric is not None:
            sql += " AND metric = ?"
            params.append(metric)
        sql += " ORDER BY metric, slot"
        with self._connect() as conn:
            rows = conn.execute(sql, params).fetchall()
        out: Dict[str, List[Tuple[int, float]]] = {}
        for name, slot, value in rows:
            out.setdefault(name, []).append((int(slot), float(value)))
        return out


def as_store(
    value: Union[None, str, Path, MetricsStore],
) -> Optional[MetricsStore]:
    """Coerce a path-or-store argument; ``None`` passes through."""
    if value is None or isinstance(value, MetricsStore):
        return value
    return MetricsStore(value)

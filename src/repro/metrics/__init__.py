"""Metrics subsystem: streaming telemetry, a queryable run store, regression
detection, and comparison dashboards.

This is the observability layer over the deterministic simulation core —
the SimCash ``web/`` + ``experiments/`` split referenced in ROADMAP.md:

* :mod:`repro.metrics.store` — an append-only sqlite run store keyed by
  :meth:`~repro.analysis.runner.RunSpec.config_hash`: one ``runs`` row of
  headline metrics per spec, plus a ``series`` table of per-checkpoint
  scalar frames;
* :mod:`repro.metrics.ingest` — compact telemetry frames emitted at every
  checkpoint boundary (:class:`~repro.metrics.ingest.TelemetrySink`),
  streamed over HTTP by the service layer;
* :mod:`repro.metrics.query` — cross-scenario / cross-policy / cross-seed
  delta queries over a store;
* :mod:`repro.metrics.regress` — per-metric tolerance gates over a store's
  version-to-version headline metrics (``repro-sim metrics regress``);
* :mod:`repro.metrics.dashboard` — a zero-dependency static HTML
  comparison dashboard (``repro-sim metrics dashboard``).

Determinism contract: everything in this package is *derived* observability
data.  Frames and rows are computed from engine state, never fed back into
it — ingesting, re-ingesting, or deleting a store can never change what a
run computes (the same rule ``docs/faults.md`` states for fault plans).
"""

from repro.metrics.ingest import (
    TelemetrySink,
    frame_metrics_from_checkpoint,
    frame_metrics_from_result,
    last_frame,
    read_frames,
)
from repro.metrics.store import MetricsStore, as_store, scenario_from_label

__all__ = [
    "MetricsStore",
    "TelemetrySink",
    "as_store",
    "frame_metrics_from_checkpoint",
    "frame_metrics_from_result",
    "last_frame",
    "read_frames",
    "scenario_from_label",
]

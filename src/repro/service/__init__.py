"""Long-lived experiment service over the deterministic simulation core.

The service layer turns the batch CLI into a system that serves traffic,
following the SimCash shape referenced in ROADMAP.md — a thin REST/CLI
surface over a deterministic engine:

* :mod:`repro.service.checkpoint` — the snapshot/restore subsystem with a
  bitwise resume contract for both engines (single-process, sharded
  under any shard count);
* :mod:`repro.service.jobs` — the experiment orchestrator: a JSON-on-disk
  job store keyed by :class:`~repro.analysis.runner.RunSpec` content hash,
  a worker pool, periodic auto-checkpointing and crash-resume;
* :mod:`repro.service.api` — the stdlib ``ThreadingHTTPServer`` API
  (submit / status / telemetry-so-far / cancel / resume / health);
* :mod:`repro.service.client` — the HTTP client with connect/read
  timeouts and bounded retry on idempotent requests.

Self-healing (see ``docs/faults.md``): the served service retries failed
jobs from their latest checkpoint with capped backoff and quarantines
poison jobs; checkpoint stores verify snapshots with sha256 checksums and
rotate them under a keep-last / keep-every retention policy.
"""

from repro.service.checkpoint import (
    CheckpointError,
    CheckpointStore,
    Checkpointer,
    CoordinatorState,
    EngineCheckpoint,
    RunInterrupted,
    reslice,
)
from repro.service.jobs import ExperimentService, JobRecord
from repro.service.api import ServiceAPI, build_run_spec, serve
from repro.service.client import ServiceClient, ServiceError, ServiceUnavailable

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "Checkpointer",
    "CoordinatorState",
    "EngineCheckpoint",
    "ExperimentService",
    "JobRecord",
    "RunInterrupted",
    "ServiceAPI",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "build_run_spec",
    "reslice",
    "serve",
]

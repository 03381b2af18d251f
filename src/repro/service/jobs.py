"""Experiment orchestrator: a durable job store plus a worker pool.

One job = one :class:`~repro.analysis.runner.RunSpec`, keyed by its content
hash.  Jobs live as JSON on disk under ``<root>/jobs/<job_id>/`` so the
service survives restarts: a crash mid-run leaves the job in ``running``
with its latest auto-checkpoint on disk, and :meth:`ExperimentService.recover`
re-enqueues it to resume from that checkpoint — the resumed run's headline
metrics are bitwise-identical to an uninterrupted run (the checkpoint
subsystem's contract, enforced by ``tests/test_checkpoint.py`` and, through
a ``SIGKILL``-ed ``repro-sim serve``, by ``tests/test_service.py``).

Job lifecycle::

    queued -> running -> done
                |   \\-> failed -> (retry backoff) -> running -> ...
                |              \\-> quarantined (attempts exhausted)
                \\-> checkpointed -> (resume) -> running -> ...

``checkpointed`` means "paused but resumable": a cancelled run lands there
after writing its final checkpoint, as does a run interrupted by shutdown.

Self-healing: with a :class:`~repro.faults.retry.RetryPolicy` the service
retries failed jobs on its own — each retry resumes from the job's latest
good checkpoint (never a from-scratch restart) after a capped exponential
backoff, and a job that keeps failing is *quarantined* so a poison spec
cannot occupy the worker pool forever.  ``resume`` on a quarantined job
clears the quarantine and resets its attempt budget.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
import traceback
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

from repro.analysis.runner import RunSpec, execute_spec, summarize_result
from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.retry import RetryPolicy
from repro.metrics.ingest import (
    FRAME_METRICS,
    TelemetrySink,
    frame_metrics_from_checkpoint,
    frame_metrics_from_result,
    last_frame,
    read_frames,
)
from repro.metrics.store import MetricsStore, as_store
from repro.service.checkpoint import (
    CheckpointStore,
    Checkpointer,
    EngineCheckpoint,
    RunInterrupted,
)
from repro.sim.trace import TRACE_LEVELS

__all__ = ["JOB_STATES", "ExperimentService", "JobRecord"]

JOB_STATES = ("queued", "running", "checkpointed", "done", "failed", "quarantined")


@dataclass
class JobRecord:
    """One job's durable metadata (everything in ``job.json``)."""

    id: str
    spec: RunSpec
    state: str = "queued"
    created_at: float = 0.0
    updated_at: float = 0.0
    slot: int = 0
    total_slots: int = 0
    error: Optional[str] = None
    attempts: int = 0
    telemetry: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        payload = dataclasses.asdict(self)
        payload["spec"] = dataclasses.asdict(self.spec)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "JobRecord":
        data: Dict[str, Any] = dict(payload)
        data["spec"] = RunSpec(**data["spec"])
        return cls(**data)


class ExperimentService:
    """Run simulation jobs concurrently with durable state and checkpoints.

    Args:
        root: service state directory (``<root>/jobs/<id>/`` per job).
        workers: worker-thread pool size.  The engines release the GIL in
            their NumPy kernels, and sharded specs fan their own worker
            processes, so threads are the right concurrency unit here.
        checkpoint_every: periodic auto-checkpoint interval in slots
            (``None`` disables the periodic grid; cancel/shutdown still
            checkpoint at the next slot boundary).
        retry: automatic retry policy for failed jobs, or ``None`` (the
            library default) to leave failures terminal as before.  The
            HTTP service (:func:`repro.service.api.serve`) enables retries
            by default.
        fault_plan: optional chaos-testing fault schedule; each job gets
            its own :class:`~repro.faults.plan.FaultInjector` over this
            plan, persistent across that job's retries.
        keep_last: checkpoint snapshots retained per job (see
            :class:`~repro.service.checkpoint.CheckpointStore`).
        keep_every_slots: additionally retain slot-milestone snapshots.
        metrics_store: optional :class:`~repro.metrics.store.MetricsStore`
            (or a path for one) receiving every job's telemetry frames and
            final run summary — the queryable side channel behind
            ``repro-sim metrics``.  Purely observational; jobs never read it.
    """

    def __init__(
        self,
        root: Union[str, Path],
        workers: int = 2,
        checkpoint_every: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        keep_last: int = 1,
        keep_every_slots: Optional[int] = None,
        metrics_store: Union[None, str, Path, MetricsStore] = None,
    ) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.workers = max(1, int(workers))
        self.checkpoint_every = checkpoint_every
        self.retry = retry
        self.fault_plan = fault_plan
        self.keep_last = keep_last
        self.keep_every_slots = keep_every_slots
        self.metrics = as_store(metrics_store)
        self._lock = threading.RLock()
        self._checkpointers: Dict[str, Checkpointer] = {}  # guarded-by: _lock
        self._cancel_requested: Set[str] = set()  # guarded-by: _lock
        self._running: Set[str] = set()  # guarded-by: _lock
        self._pool: Optional[ThreadPoolExecutor] = None  # guarded-by: _lock
        self._retry_timers: Dict[str, threading.Timer] = {}  # guarded-by: _lock
        self._injectors: Dict[str, FaultInjector] = {}  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

    # -- job store ---------------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def telemetry_path(self, job_id: str) -> Path:
        """The job's NDJSON frame stream (``telemetry.jsonl``)."""
        return self.job_dir(job_id) / "telemetry.jsonl"

    def _job_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "job.json"

    def get(self, job_id: str) -> JobRecord:
        path = self._job_path(job_id)
        if not path.is_file():
            raise KeyError(f"unknown job {job_id!r}")
        with self._lock:
            return JobRecord.from_dict(json.loads(path.read_text()))

    def _save(self, record: JobRecord) -> None:
        record.updated_at = time.time()  # reprolint: allow(wall-clock): job metadata, never feeds sim state
        path = self._job_path(record.id)
        with self._lock:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(record.to_dict(), indent=2, default=str))
            os.replace(tmp, path)

    def list_jobs(self) -> List[JobRecord]:
        """All known jobs, oldest first."""
        records = []
        for path in sorted(self.jobs_dir.glob("*/job.json")):
            try:
                records.append(JobRecord.from_dict(json.loads(path.read_text())))
            except (ValueError, TypeError, KeyError):
                continue  # a partially-written record never hides the rest
        return sorted(records, key=lambda r: r.created_at)

    def result(self, job_id: str) -> Optional[Dict[str, object]]:
        """The finished job's ``RunSummary`` payload, or ``None``."""
        path = self.job_dir(job_id) / "result.json"
        if not path.is_file():
            return None
        return json.loads(path.read_text())

    def read_telemetry(
        self, job_id: str, after_seq: int = -1
    ) -> List[Dict[str, Any]]:
        """The job's telemetry frames with ``seq > after_seq``, oldest first."""
        self.get(job_id)  # raises KeyError for unknown jobs
        return read_frames(self.telemetry_path(job_id), after_seq=after_seq)

    def retry_pending(self, job_id: str) -> bool:
        """Whether a failed job has a retry timer armed (it will run again)."""
        with self._lock:
            return job_id in self._retry_timers

    # -- lifecycle -----------------------------------------------------------------

    def submit(self, spec: RunSpec, enqueue: bool = True) -> JobRecord:
        """Register a job for the spec (idempotent by content hash) and queue it.

        ``enqueue=False`` only writes the ``queued`` record, without waking a
        worker — the register-only path (``repro-sim jobs submit`` without
        ``--run``), where a serving process or a later ``jobs resume`` picks
        the job up instead of this process.
        """
        # Refuse a spec that can only fail at run time while the submitter
        # is still listening: config, policy and execution mode.
        config = spec.build_config()
        spec.build_policy()
        shards = spec.shards
        if isinstance(shards, bool) or not isinstance(shards, int) or shards < 1:
            raise ValueError(f"shards must be a positive integer, got {shards!r}")
        if spec.trace_level not in TRACE_LEVELS:
            raise ValueError(
                f"unknown trace_level {spec.trace_level!r}; choose from {TRACE_LEVELS}"
            )
        job_id = spec.config_hash()
        try:
            existing = self.get(job_id)
        except KeyError:
            pass
        else:
            if existing.state in ("queued", "running"):
                return existing
            if existing.state == "done":
                return existing
            # failed / checkpointed: fall through and re-queue (resume picks
            # up the checkpoint if one exists).
        record = JobRecord(
            id=job_id,
            spec=spec,
            state="queued",
            created_at=time.time(),  # reprolint: allow(wall-clock): job metadata, never feeds sim state
            total_slots=config.total_slots,
        )
        self._save(record)
        if enqueue:
            self._enqueue(job_id)
        return record

    def resume(self, job_id: str, sync: bool = False) -> JobRecord:
        """Queue a checkpointed/failed/interrupted job to continue.

        ``sync=True`` runs the job on the calling thread and returns its
        final record — the crash-recovery path (``repro-sim jobs resume``):
        a fresh process owns no runs, so a job found ``running`` there is
        orphaned and is reclaimed from its last checkpoint.
        """
        record = self.get(job_id)
        if record.state == "done":
            return record
        if record.state != "running" or sync:
            record.state = "queued"
            # A human resume is a fresh grant of the attempt budget — it
            # clears a quarantine instead of bouncing off it.
            record.attempts = 0
            self._save(record)
        if sync:
            return self.run_job(job_id)
        self._enqueue(job_id)
        return record

    def cancel(self, job_id: str) -> JobRecord:
        """Stop a job at its next slot boundary (leaves it resumable)."""
        record = self.get(job_id)
        with self._lock:
            self._cancel_requested.add(job_id)
            checkpointer = self._checkpointers.get(job_id)
            timer = self._retry_timers.pop(job_id, None)
        if timer is not None:
            timer.cancel()
            if record.state == "failed":  # retry was pending; park resumable
                record.state = "checkpointed"
                self._save(record)
        if checkpointer is not None:
            checkpointer.request_stop()
        elif record.state == "queued":
            record.state = "checkpointed"
            self._save(record)
        return record

    def recover(self) -> List[str]:
        """Re-enqueue jobs a previous process left queued or mid-run."""
        recovered = []
        for record in self.list_jobs():
            if record.state in ("queued", "running"):
                if record.state == "running":
                    # The process that owned this run is gone; fall back to
                    # its last auto-checkpoint (or a fresh start).
                    record.state = "queued"
                    self._save(record)
                self._enqueue(record.id)
                recovered.append(record.id)
        return recovered

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; running jobs checkpoint and unwind."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
            checkpointers = list(self._checkpointers.values())
            timers = list(self._retry_timers.values())
            self._retry_timers.clear()
        for timer in timers:
            timer.cancel()
        for checkpointer in checkpointers:
            checkpointer.request_stop()
        if pool is not None:
            pool.shutdown(wait=wait)

    def health(self) -> Dict[str, object]:
        """Worker-pool and job-population health (the ``/healthz`` payload)."""
        with self._lock:
            running = sorted(self._running)
            retries_pending = sorted(self._retry_timers)
            pool_started = self._pool is not None
            closed = self._closed
        states = Counter(record.state for record in self.list_jobs())
        return {
            "ok": not closed,
            "workers": self.workers,
            "pool_started": pool_started,
            "running": running,
            "retries_pending": retries_pending,
            "jobs": dict(states),
            "retry": None if self.retry is None else self.retry.to_dict(),
        }

    def _enqueue(self, job_id: str) -> None:
        with self._lock:
            if self._closed:
                return
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-job"
                )
            self._pool.submit(self.run_job, job_id)

    def _schedule_retry(self, job_id: str, attempts: int) -> bool:
        """Arm a backoff timer re-enqueueing a failed job; False if closed."""
        assert self.retry is not None
        delay_s = self.retry.delay_s(attempts)

        def fire() -> None:
            with self._lock:
                self._retry_timers.pop(job_id, None)
            self._enqueue(job_id)

        with self._lock:
            if self._closed or job_id in self._retry_timers:
                return False
            timer = threading.Timer(delay_s, fire)
            timer.daemon = True
            self._retry_timers[job_id] = timer
        timer.start()
        return True

    def _injector_for(self, job_id: str) -> Optional[FaultInjector]:
        """The job's fault injector (one per job, persistent across retries)."""
        if self.fault_plan is None:
            return None
        with self._lock:
            return self._injectors.setdefault(job_id, FaultInjector(self.fault_plan))

    # -- execution -----------------------------------------------------------------

    def run_job(self, job_id: str) -> JobRecord:
        """Execute (or resume) one job to completion, checkpoint, or failure.

        Worker threads land here; callers that want a synchronous run (the
        ``repro-sim jobs resume`` crash-recovery path) may invoke it
        directly.
        """
        injector = self._injector_for(job_id)
        store = CheckpointStore(
            self.job_dir(job_id) / "checkpoint",
            keep_last=self.keep_last,
            keep_every_slots=self.keep_every_slots,
            fault_injector=injector,
        )
        # Claim the job atomically: the state check, the in-process running
        # guard, and the queued->running transition all happen under one
        # lock hold, so two enqueues of the same id (double resume, recover
        # racing a resume) can never both execute it.
        with self._lock:
            record = self.get(job_id)
            if (
                record.state in ("done", "running", "quarantined")
                or job_id in self._running
            ):
                return record

            # One frame stream per job: a sink over a pre-existing file (a
            # retry, a resume in a new process) recovers its seq/slot tail
            # and keeps the stream strictly increasing across recoveries.
            sink_t = TelemetrySink(
                path=self.telemetry_path(job_id),
                store=self.metrics,
                spec_hash=job_id,
                total_slots=record.total_slots,
            )

            def sink(checkpoint: EngineCheckpoint) -> None:
                store.save(checkpoint)
                record.slot = checkpoint.slot
                frame = sink_t.last_frame
                if frame is not None and frame.get("slot") == checkpoint.slot:
                    record.telemetry = {
                        key: value
                        for key, value in frame.items()
                        if key not in ("seq", "slot", "total_slots", "final")
                    }
                else:  # replayed slot: the frame was dropped; recompute
                    record.telemetry = frame_metrics_from_checkpoint(checkpoint)
                for key in ("bytes_written", "bytes_referenced"):
                    record.telemetry[f"checkpoint_{key}"] = store.last_save[key]
                self._save(record)

            checkpointer = Checkpointer(
                sink, every_slots=self.checkpoint_every, telemetry=sink_t
            )
            self._running.add(job_id)
            self._checkpointers[job_id] = checkpointer
            if job_id in self._cancel_requested:
                checkpointer.request_stop()
            record.state = "running"
            record.error = None
            self._save(record)

        spec = record.spec
        retry_after = False
        start = time.perf_counter()  # reprolint: allow(wall-clock): wall_time_s reporting, not sim state
        try:
            # Inside the try: a corrupt or format-incompatible checkpoint
            # marks the job failed (with the traceback) instead of raising
            # into a pool future nobody inspects.
            resume_from = store.load() if store.exists() else None
            if resume_from is not None:
                record.slot = resume_from.slot
                self._save(record)
            result = execute_spec(
                spec,
                checkpointer=checkpointer,
                resume_from=resume_from,
                fault_injector=injector,
            )
        except RunInterrupted as stop:
            record.state = "checkpointed"
            record.slot = stop.checkpoint.slot
            self._save(record)
        except Exception:
            record.attempts += 1
            record.error = traceback.format_exc(limit=20)
            cancelled = False
            with self._lock:
                cancelled = job_id in self._cancel_requested
            if (
                self.retry is not None
                and not cancelled
                and not self.retry.should_retry(record.attempts)
            ):
                record.state = "quarantined"
            else:
                record.state = "failed"
            self._save(record)
            retry_after = (
                record.state == "failed" and self.retry is not None and not cancelled
            )
        else:
            wall_s = time.perf_counter() - start  # reprolint: allow(wall-clock): wall_time_s reporting, not sim state
            summary = summarize_result(spec, result, wall_time_s=wall_s)
            result_path = self.job_dir(job_id) / "result.json"
            tmp = result_path.with_suffix(".json.tmp")
            tmp.write_text(summary.to_json())
            os.replace(tmp, result_path)
            record.state = "done"
            record.slot = record.total_slots
            record.telemetry = frame_metrics_from_result(result)
            # The final frame lands before the "done" record, so a stream
            # reader that sees the terminal state has the whole stream.
            sink_t.emit(
                record.total_slots, dict(record.telemetry), final=True
            )
            self._save(record)
            if self.metrics is not None:
                self.metrics.ingest_run(summary, spec=spec)
        finally:
            with self._lock:
                self._running.discard(job_id)
                self._checkpointers.pop(job_id, None)
                self._cancel_requested.discard(job_id)
        if retry_after:
            # Scheduled only after the running guard is released, so even a
            # zero-delay retry cannot race the claim and get dropped.
            # The retry resumes from the latest good checkpoint, not from
            # scratch.
            self._schedule_retry(job_id, record.attempts)
        return record

    def telemetry(self, job_id: str) -> Dict[str, object]:
        """Telemetry-so-far: the latest frame's aggregates plus job state.

        Serves the poll endpoint (``GET /jobs/<id>/telemetry``).  The
        payload is the same compact frame the streaming endpoint sends —
        overlaid from the frame file's tail when one exists — plus the
        ``state``/``slot``/``total_slots`` keys older clients already rely
        on, so the shape is a backward-compatible superset.
        """
        record = self.get(job_id)
        payload = dict(record.telemetry)
        frame = last_frame(self.telemetry_path(job_id))
        if frame is not None:
            for key in FRAME_METRICS + ("seq",):
                if key in frame:
                    payload[key] = frame[key]
        payload.update(
            {
                "state": record.state,
                "slot": record.slot,
                "total_slots": record.total_slots,
            }
        )
        return payload

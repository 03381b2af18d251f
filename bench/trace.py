"""Outside-in tracing: spans around the layers' public callables.

The tracer replaces attributes on the imported classes and modules (no
``src/`` edit) and records, in memory, one span per call: name, start, end,
parent.  A span's *self time* is its duration minus the time covered by its
child spans, so self times sum to the root by construction.  Only calls made
at most a few tens of thousands of times per run are wrapped — per-user
``decide`` (hundreds of thousands of calls on an offline run) deliberately is
not — which is what keeps the overhead small.

Shard workers are forked with the patched classes, so the tracer switches
itself off in every forked child: a sharded run is seen from the coordinator
only, and worker time shows up as ``sim.shard.ipc.wait``.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.offline import KnapsackSolver, OfflinePolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import ImmediatePolicy, SchedulingPolicy, SyncPolicy
from repro.core.queues import TaskQueue, VirtualQueue
from repro.fl.client import FLClient
from repro.fl.server import ParameterServer
from repro.metrics.ingest import TelemetrySink
from repro.metrics.store import MetricsStore
from repro.scenarios import compiler
from repro.service.checkpoint import CheckpointStore, CoordinatorState
from repro.sim import shard
from repro.sim.arrivals import ArrivalSchedule
from repro.sim.coupling import CouplingCore
from repro.sim.engine import SimulationEngine, SimulationResult
from repro.sim.fleet import FleetState
from repro.sim.shmplane import ShardMailbox
from repro.sim.trace import SimulationTrace

from bench.workloads import SHARDS

Observer = Callable[["Tracer", tuple, Any], None]

ROOT = "sim.engine.run"
PICKLE_PROTO = 0x80  # first byte of a frame that spilled past the mailbox slab


def _count_post(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counters["post." + args[1]] += 1


def _count_frame(frame: bytes, tracer: "Tracer") -> None:
    tracer.counters["frame_bytes"] += len(frame)
    tracer.counters["spill" if frame[0] == PICKLE_PROTO else "doorbell"] += 1


#: span name -> the public callables recorded under it, as (owner, attribute)
#: or (owner, attribute, observer).  Several callables may share one span.
SPANS: Dict[str, Tuple[tuple, ...]] = {
    "scenarios.compile_scenario": ((compiler, "compile_scenario"),),
    "sim.engine.build": ((SimulationEngine, "__init__"), (shard.ShardedEngine, "__init__")),
    "sim.arrivals.generate": ((ArrivalSchedule, "generate"),),
    ROOT: ((SimulationEngine, "run"), (shard.ShardedEngine, "run")),
    "sim.shard.drive_fleet_loop": ((shard, "drive_fleet_loop"),),
    "sim.shard.open_slot": ((shard.FleetShard, "open_slot"),),
    "sim.shard.run_slot": ((shard.FleetShard, "run_slot"),),
    "sim.shard.quiet_try": ((shard.FleetShard, "quiet_try"),),
    "sim.shard.quiet_commit": ((shard.FleetShard, "quiet_commit"),),
    "sim.shard.finalize": ((shard.FleetShard, "finalize"),),
    "sim.fleet.begin_slot_apps": ((FleetState, "begin_slot_apps"),),
    "sim.fleet.ready_payload": ((FleetState, "ready_payload"),),
    "sim.fleet.advance": ((FleetState, "advance"),),
    "sim.fleet.advance_quiet": ((FleetState, "advance_quiet"),),
    "sim.fleet.quiet_snapshot": ((FleetState, "quiet_snapshot"),),
    "sim.shard.build_observation_batch": ((shard, "build_observation_batch"),),
    "fl.server.estimate_lags": ((ParameterServer, "estimate_lags"),),
    "core.online.decide_all": ((OnlinePolicy, "decide_all"),),
    "core.online.queues": (
        (OnlinePolicy, "begin_slot"),
        (OnlinePolicy, "end_slot"),
        (TaskQueue, "advance_idle"),
        (VirtualQueue, "advance_constant"),
    ),
    "core.offline.begin_slot": ((OfflinePolicy, "begin_slot"),),
    "core.offline.knapsack_solve": ((KnapsackSolver, "solve"),),
    "core.policy.decide_all": (
        (SchedulingPolicy, "decide_all"),
        (ImmediatePolicy, "decide_all"),
        (SyncPolicy, "decide_all"),
    ),
    "fl.client.local_train": ((FLClient, "local_train"),),
    "fl.server.async_update": ((ParameterServer, "async_update"),),
    "sim.coupling.apply_async_update": ((CouplingCore, "apply_async_update"),),
    "sim.coupling.sync_round": ((CouplingCore, "maybe_complete_sync_round"),),
    "sim.coupling.record_download": ((CouplingCore, "record_download"),),
    "sim.coupling.evaluate": ((CouplingCore, "evaluate"),),
    "sim.coupling.total_gap": ((CouplingCore, "total_gap"),),
    "sim.trace.record": (
        (SimulationTrace, "maybe_record_slot"),
        (SimulationTrace, "record_user_gaps"),
        (SimulationTrace, "record_update"),
    ),
    "sim.shard.ipc.post": ((shard.ProcessShardHandle, "post", _count_post),),
    "sim.shard.ipc.wait": ((shard.ProcessShardHandle, "wait"),),
    "sim.shmplane.encode": (
        (ShardMailbox, "encode", lambda tracer, args, result: _count_frame(result, tracer)),
    ),
    "sim.shmplane.decode": (
        (ShardMailbox, "decode", lambda tracer, args, result: _count_frame(args[1], tracer)),
    ),
    "service.checkpoint.capture": (
        (CoordinatorState, "capture"),
        (shard.FleetShard, "checkpoint_state"),
    ),
    "service.checkpoint.save": ((CheckpointStore, "save"),),
    "service.checkpoint.load": ((CheckpointStore, "load"),),
    "service.checkpoint.restore": ((SimulationEngine, "restore"),),
    "metrics.ingest.emit": ((TelemetrySink, "emit"),),
    "metrics.store.ingest_frame": ((MetricsStore, "ingest_frame"),),
}

#: Spans of the set-up phase (``setup_s``); every other span is under the root.
SETUP_SPANS = ("scenarios.compile_scenario.", "sim.engine.build.", "sim.arrivals.generate.")

#: Spans that additionally report call-duration percentiles.
PERCENTILE_SPANS = (
    "sim.fleet.advance",
    "core.online.decide_all",
    "fl.client.local_train",
    "sim.shard.ipc.wait",
    "service.checkpoint.save",
)

#: Counters and useful-work ratios: (name, unit, better).
COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.engine.run.total_s", "s", "lower"),
    ("sim.ff.slots_skipped_frac", "fraction", "higher"),
    ("core.policy.schedule_frac", "fraction", "higher"),
    ("sim.shard.ipc.doorbells", "count", "lower"),
    ("sim.shard.ipc.spec_open_frac", "fraction", "higher"),
    ("sim.shmplane.frame_bytes", "bytes", "lower"),
    ("sim.shmplane.spill_frames", "count", "lower"),
    ("sim.shard.worker_peak_rss_mb", "MiB", "lower"),
    ("service.checkpoint.snapshots", "count", "lower"),
    ("service.checkpoint.bytes_per_snapshot", "bytes", "lower"),
    ("metrics.ingest.frames", "count", "lower"),
    ("trace_overhead", "ratio", "lower"),
    ("host.raw_run_s", "s", "lower"),
    ("host.raw_setup_s", "s", "lower"),
    ("host.raw_cpu_s", "s", "lower"),
    ("host.slowdown", "ratio", "lower"),
    ("host.stolen_frac", "fraction", "lower"),
)


def layer_metric_specs() -> List[Tuple[str, str, str]]:
    """Every per-layer metric the traced run emits: (name, unit, better)."""
    specs: List[Tuple[str, str, str]] = []
    for span in SPANS:
        specs.append((f"{span}.self_s", "s", "lower"))
        specs.append((f"{span}.calls", "count", "lower"))
        if span in PERCENTILE_SPANS:
            specs.append((f"{span}.p50_us", "us", "lower"))
            specs.append((f"{span}.p99_us", "us", "lower"))
    specs.extend(COUNTERS)
    return specs


class Tracer:
    """In-memory span recorder for the main thread of one process."""

    def __init__(self) -> None:
        self.active = True
        # A forked shard worker inherits the patched classes; its calls must
        # cost nothing and record nothing.
        os.register_at_fork(after_in_child=self._deactivate)
        self.reset()

    def _deactivate(self) -> None:
        self.active = False

    def reset(self) -> None:
        self.names: List[str] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = [-1]

    def wrap(self, name: str, fn: Callable, observe: Optional[Observer] = None) -> Callable:
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = clock()
                self._stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every callable in :data:`SPANS`; restore them on exit."""
        originals: List[Tuple[Any, str, Any]] = []
        try:
            for name, targets in SPANS.items():
                for owner, attr, *rest in targets:
                    static = inspect.getattr_static(owner, attr)
                    originals.append((owner, attr, static))
                    observe = rest[0] if rest else None
                    if isinstance(static, classmethod):
                        patched: Any = classmethod(self.wrap(name, static.__func__, observe))
                    else:
                        patched = self.wrap(name, static, observe)
                    setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, static in reversed(originals):
                setattr(owner, attr, static)

    # -- analysis -------------------------------------------------------------------

    def layer_metrics(self, results: Dict[str, SimulationResult]) -> Dict[str, float]:
        """Per-layer metrics of the spans recorded since :meth:`reset`.

        Also returns ``_self_sum_error`` (relative gap between the summed
        self times below the run roots and the roots' own durations) and
        ``_min_self_s`` for the harness to assert on.
        """
        span_id = {span: index for index, span in enumerate(SPANS)}
        names = np.fromiter((span_id[name] for name in self.names), np.int64, len(self.names))
        parents = np.asarray(self.parents, dtype=np.int64)
        durations = np.asarray(self.ends) - np.asarray(self.starts)
        covered = np.zeros_like(durations)
        child = parents >= 0
        np.add.at(covered, parents[child], durations[child])
        self_s = durations - covered
        # Spans are appended in start order, so a parent precedes its children.
        under_root = np.zeros(len(names), dtype=bool)
        for index, (name, parent) in enumerate(zip(self.names, self.parents)):
            under_root[index] = name == ROOT if parent < 0 else under_root[parent]

        metrics: Dict[str, float] = {}
        for span in SPANS:
            mask = names == span_id[span]
            metrics[f"{span}.self_s"] = float(self_s[mask].sum())
            metrics[f"{span}.calls"] = float(mask.sum())
            if span in PERCENTILE_SPANS:
                p50, p99 = np.percentile(durations[mask], [50, 99]) if mask.any() else (0.0, 0.0)
                metrics[f"{span}.p50_us"] = float(p50) * 1e6
                metrics[f"{span}.p99_us"] = float(p99) * 1e6

        root_total = float(durations[(names == span_id[ROOT]) & ~child].sum())
        metrics["sim.engine.run.total_s"] = root_total
        metrics["_self_sum_error"] = abs(float(self_s[under_root].sum()) - root_total) / root_total
        metrics["_min_self_s"] = float(self_s.min())

        posts = self.counters
        sharded_slots = posts["post.run_slot"] / SHARDS  # one post per shard and slot
        slots_run = metrics["sim.shard.run_slot.calls"] + sharded_slots
        total_slots = sum(result.config.total_slots for result in results.values())
        decisions = [result.trace.decisions for result in results.values()]
        evaluated = sum(sum(counts.values()) for counts in decisions)
        metrics["sim.ff.slots_skipped_frac"] = 1.0 - slots_run / total_slots
        metrics["core.policy.schedule_frac"] = (
            sum(counts["schedule"] for counts in decisions) / evaluated if evaluated else 0.0
        )
        metrics["sim.shard.ipc.doorbells"] = float(posts["doorbell"])
        metrics["sim.shard.ipc.spec_open_frac"] = (
            1.0 - posts["post.open_slot"] / posts["post.run_slot"] if posts["post.run_slot"] else 0.0
        )
        metrics["sim.shmplane.frame_bytes"] = float(posts["frame_bytes"])
        metrics["sim.shmplane.spill_frames"] = float(posts["spill"])
        metrics["service.checkpoint.snapshots"] = metrics["service.checkpoint.save.calls"]
        return metrics

"""The benchmark's workloads: what is built, what is run, why it was chosen.

A workload is split into the three phases the harness times separately:
``build`` (scenario compile + engine construction → ``setup_s``), ``run``
(``engine.run()`` → ``run_s`` / ``cpu_s``) and ``finish`` (an untimed
epilogue that may report counters and must remove what ``build`` created).
Engines are built through their public constructors with their defaults
(``profile=False``); layer modules are reached through their module
attribute at call time so the outside-in tracer sees the calls.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.offline import OfflinePolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import ImmediatePolicy, SyncPolicy
from repro.metrics.ingest import TelemetrySink, frame_metrics_from_result
from repro.metrics.store import MetricsStore
from repro.scenarios import compiler
from repro.service.checkpoint import Checkpointer, CheckpointStore
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine, SimulationResult
from repro.sim.shard import ShardedEngine

from bench.check import Check
from bench.workloads import configs

__all__ = ["WORKLOADS", "Workload"]

#: Checkpoint stores are made here, one temporary directory per repetition:
#: the benchmark's contract lets it write inside its checkout only, so the
#: system temp directory is out, and ``.gitignore`` names the prefix.
REPO_ROOT = Path(__file__).resolve().parents[2]
CKPT_PREFIX = ".bench-ckpt-"

#: The paper's recommended control knob (Sec. VII), used by every online run.
ONLINE_V = 4000.0

#: Worker processes of every ``.shards2`` workload (= ``nproc`` of the sizing host).
SHARDS = 2

Results = Dict[str, SimulationResult]


class Workload:
    """One named set of inputs plus the execution mode it is pushed through."""

    def __init__(
        self,
        name: str,
        why: str,
        inputs: Callable[[int, str], SimulationConfig],
        engine: Callable[[SimulationConfig], Any],
        same_as: Optional[str] = None,
        sharded: bool = False,
    ) -> None:
        self.name = name
        self.why = why
        self.inputs = inputs
        self.engine = engine
        #: Name of the workload whose digest this one must equal bit for bit.
        self.same_as = same_as
        self.sharded = sharded

    def build(self, seed: int, scale: str) -> Any:
        return self.engine(self.inputs(seed, scale))

    def run(self, built: Any) -> Results:
        return {"online": built.run()}

    def finish(self, built: Any) -> Dict[str, float]:
        return {}

    def checks(self, results: Results, scale: str) -> List[Check]:
        """Workload-specific output checks beyond the per-result invariants."""
        return []


class PaperCompare(Workload):
    """The four Sec. VII schemes on one population, one run each."""

    POLICIES: Tuple[Tuple[str, Callable[[], Any]], ...] = (
        ("immediate", ImmediatePolicy),
        ("sync", SyncPolicy),
        ("offline", OfflinePolicy),
        ("online", lambda: OnlinePolicy(v=ONLINE_V)),
    )

    def build(self, seed: int, scale: str) -> Any:
        return [
            (label, SimulationEngine(self.inputs(seed, scale), policy()))
            for label, policy in self.POLICIES
        ]

    def run(self, built: Any) -> Results:
        return {label: engine.run() for label, engine in built}

    def checks(self, results: Results, scale: str) -> List[Check]:
        if scale != "full":  # a smoke horizon sees too few arrivals to co-run
            return []
        energy = {label: result.total_energy_j() for label, result in results.items()}
        saving = 1.0 - energy["online"] / energy["immediate"]
        # The paper reports ~32% at 10 800 slots; this hour of it reads
        # 0.17 to 0.54 over seeds 0-39 (median 0.43).  The band catches an
        # online policy that degenerates to "immediate" or stops training.
        return [
            ("online saves 10-65% of the immediate energy", 0.10 <= saving <= 0.65),
            ("offline energy <= online energy", energy["offline"] <= energy["online"]),
        ]


class Checkpointed(Workload):
    """A run that snapshots to disk and streams telemetry at every boundary."""

    def build(self, seed: int, scale: str) -> Any:
        config = self.inputs(seed, scale)
        root = Path(tempfile.mkdtemp(prefix=CKPT_PREFIX, dir=REPO_ROOT))
        store = CheckpointStore(root / "checkpoint")
        sink = TelemetrySink(
            path=root / "telemetry.jsonl",
            store=MetricsStore(root / "metrics.sqlite"),
            spec_hash=self.name,
            total_slots=config.total_slots,
        )
        checkpointer = Checkpointer(
            store.save, every_slots=configs.CHECKPOINT_EVERY[scale], telemetry=sink
        )
        return root, store, sink, checkpointer, self.engine(config)

    def run(self, built: Any) -> Results:
        _, _, sink, checkpointer, engine = built
        result = engine.run(checkpointer)
        sink.emit(result.config.total_slots, frame_metrics_from_result(result), final=True)
        return {"online": result}

    def finish(self, built: Any) -> Dict[str, float]:
        root, store, sink, _, _ = built
        try:
            SimulationEngine.restore(store.load())
            snapshot_bytes = sum(
                path.stat().st_size for path in store.root.rglob("*") if path.is_file()
            )
            return {
                # keep_last=1: what is on disk is exactly the last snapshot.
                "service.checkpoint.bytes_per_snapshot": float(snapshot_bytes),
                "metrics.ingest.frames": float(sink.last_frame["seq"] + 1),
            }
        finally:
            shutil.rmtree(root)


def _single(trace_level: str) -> Callable[[SimulationConfig], Any]:
    return lambda config: SimulationEngine(
        config, OnlinePolicy(v=ONLINE_V), trace_level=trace_level
    )


def _shards2(trace_level: str) -> Callable[[SimulationConfig], Any]:
    return lambda config: ShardedEngine(
        config, OnlinePolicy(v=ONLINE_V), shards=SHARDS, trace_level=trace_level
    )


def _compiled(spec: Callable[[int, str], Any]) -> Callable[[int, str], SimulationConfig]:
    return lambda seed, scale: compiler.compile_scenario(spec(seed, scale)).build_config()


_ALL = (
    PaperCompare(
        "paper-compare",
        "what a reader of the paper runs, for one hour of its three; the only workload where "
        "core is used four ways: per-user decide, sync quorum, knapsack windows, batched Eq. 21-23",
        configs.paper_config,
        None,
    ),
    Workload(
        "midfleet-400",
        "dense decisions every slot: training, policy + lag estimate and fleet "
        "kernels all carry weight; baseline for the .shards2 and .ckpt variants",
        configs.midfleet_config,
        _single("full"),
    ),
    Workload(
        "midfleet-400.shards2",
        "same inputs through 2 process shards: thousands of small doorbells, the "
        "latency regime where IPC dominates and sharding loses to one process",
        configs.midfleet_config,
        _shards2("full"),
        same_as="midfleet-400",
        sharded=True,
    ),
    Checkpointed(
        "midfleet-400.ckpt",
        "same inputs with a disk snapshot + telemetry frame every 120 slots: the "
        "only workload that exercises service.checkpoint and metrics",
        configs.midfleet_config,
        _single("full"),
        same_as="midfleet-400",
    ),
    Workload(
        "overnight-500",
        "phones through a whole night, every battery drained to the gate: fast-forward and fleet "
        "kernels are half the wall and training a quarter, the inverse of every other workload",
        _compiled(configs.overnight_spec),
        _single("summary"),
    ),
    Workload(
        "megafleet-4k",
        "the megafleet cohort mix, one sample per user, summary trace: array-kernel and memory "
        "regime (sparse arrival generator, wide ready pools); 4/5 of peak_rss_mb is the fleet's",
        _compiled(configs.megafleet_spec),
        _single("summary"),
    ),
    Workload(
        "megafleet-4k.shards2",
        "same inputs through 2 process shards: the payload regime of the data plane "
        "(O(users) observation matrices through the mailboxes)",
        _compiled(configs.megafleet_spec),
        _shards2("summary"),
        same_as="megafleet-4k",
        sharded=True,
    ),
)

WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in _ALL}

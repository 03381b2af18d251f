"""Seeded chaos smoke check: faults must not change results (CI gate).

The gate runs the sharded ``megafleet-1k`` scenario twice through the
experiment service:

1. **Reference** — fault-free, with the same periodic auto-checkpointing the
   chaos run uses, so checkpoint overhead is in both wall-clocks.
2. **Chaos** — the same spec under a deterministic :class:`FaultPlan`: a
   shard worker SIGKILLs itself mid-epoch (the supervisor must respawn it
   and replay from its last snapshot) and one checkpoint save is corrupted
   (save-time verification must fail the attempt and the service's retry
   timer must resume the job from the last *good* snapshot — no operator).
   Both services keep two snapshots (``keep_last=2``) and both faults land
   after the third, so the snapshots recovered from leave vectors in the
   packs earlier snapshots wrote (checkpoint format v7).

The gate fails unless the chaos job ends ``done`` on its own, every fault in
the plan actually fired, every headline metric is **bitwise identical** to
the fault-free reference, and the chaos wall-clock stays within
``--max-overhead`` times the reference.

Every run appends a record to ``benchmark_artifacts/BENCH_chaos.json``
(reference/chaos seconds, fault slots, retry attempts, mismatches) so
recovery-cost regressions are visible across commits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.faults import FaultEvent, FaultPlan, RetryPolicy
from repro.metrics.bench import append_trajectory, bench_record
from repro.scenarios.runner import scenario_run_spec
from repro.service.jobs import ExperimentService

ARTIFACT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmark_artifacts",
    "BENCH_chaos.json",
)

#: The headline metrics that must survive the chaos run bitwise.
HEADLINE_KEYS = (
    "energy_j",
    "final_accuracy",
    "best_accuracy",
    "num_updates",
    "decision_evaluations",
    "mean_queue_length",
    "mean_virtual_queue_length",
    "final_virtual_queue_length",
    "schedule_fraction",
    "corun_jobs",
    "background_jobs",
    "comm_bytes_mb",
    "comm_failures",
    "mean_final_battery_soc",
)


def mismatched_keys(reference: dict, recovered: dict):
    return [
        key for key in HEADLINE_KEYS if reference.get(key) != recovered.get(key)
    ]


def _read_summary(service: ExperimentService, job_id: str) -> dict:
    with open(
        os.path.join(str(service.job_dir(job_id)), "result.json"),
        "r",
        encoding="utf-8",
    ) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="megafleet-1k",
                        help="registry scenario to run under chaos")
    parser.add_argument("--trace-level", default="summary",
                        choices=["full", "summary", "off"])
    parser.add_argument("--shards", type=int, default=2,
                        help="shard workers (the kill needs at least 2)")
    parser.add_argument("--root", default=None,
                        help="service state dir (default: a temp dir)")
    parser.add_argument("--checkpoint-every", type=int, default=1000,
                        help="auto-checkpoint interval in slots")
    parser.add_argument("--kill-slot", type=int, default=None,
                        help="shard-SIGKILL slot (default: 40%% of horizon)")
    parser.add_argument("--corrupt-slot", type=int, default=None,
                        help="checkpoint-corruption arm slot "
                             "(default: 60%% of horizon)")
    parser.add_argument("--max-overhead", type=float, default=3.0,
                        help="fail when the chaos wall-clock exceeds this "
                             "factor times the fault-free reference "
                             "(recovery replays the window since the last "
                             "snapshot; the retry re-runs the tail)")
    parser.add_argument("--max-seconds", type=float, default=1500.0,
                        help="hard wall-clock budget for the whole gate")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = args.root
    if root is None:
        import tempfile

        root = tempfile.mkdtemp(prefix="repro-chaos-smoke-")

    spec = scenario_run_spec(
        args.scenario,
        policy="online",
        trace_level=args.trace_level,
        shards=args.shards,
    )
    total_slots = int(spec.config["total_slots"])
    kill_slot = args.kill_slot if args.kill_slot is not None else (total_slots * 2) // 5
    corrupt_slot = (
        args.corrupt_slot if args.corrupt_slot is not None else (total_slots * 3) // 5
    )
    plan = FaultPlan(seed=0, events=[
        FaultEvent(kind="kill_shard", at=kill_slot, shard=args.shards - 1),
        FaultEvent(kind="corrupt_checkpoint", at=corrupt_slot),
    ])
    print(f"{args.scenario}: {total_slots} slots, {args.shards} shards; "
          f"SIGKILL shard {args.shards - 1} at slot {kill_slot}, "
          f"corrupt the checkpoint save armed at slot {corrupt_slot}")

    failures = []

    # 1. Fault-free reference (same checkpoint cadence, no plan).
    t0 = time.perf_counter()
    reference_service = ExperimentService(
        os.path.join(root, "reference"),
        checkpoint_every=args.checkpoint_every,
        keep_last=2,
    )
    reference_record = reference_service.submit(spec, enqueue=False)
    if reference_service.run_job(reference_record.id).state != "done":
        print("FAIL: fault-free reference run did not finish", file=sys.stderr)
        return 1
    reference = _read_summary(reference_service, reference_record.id)
    ref_s = time.perf_counter() - t0
    print(f"reference: {ref_s:6.1f}s  energy={reference['energy_kj']:.1f} kJ  "
          f"updates={reference['num_updates']}  "
          f"accuracy={reference['final_accuracy']:.3f}")

    # 2. Chaos run: submit and walk away — the shard supervisor and the
    # service retry timer must bring it home with no intervention.
    t1 = time.perf_counter()
    chaos_service = ExperimentService(
        os.path.join(root, "chaos"),
        workers=1,
        checkpoint_every=args.checkpoint_every,
        keep_last=2,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.2, cap_s=2.0),
        fault_plan=plan,
    )
    chaos_record = chaos_service.submit(spec)
    deadline = started + args.max_seconds
    while time.perf_counter() < deadline:
        state = chaos_service.get(chaos_record.id).state
        if state in ("done", "quarantined"):
            break
        time.sleep(0.5)
    chaos_s = time.perf_counter() - t1
    final = chaos_service.get(chaos_record.id)
    fired = chaos_service._injector_for(chaos_record.id).fired_events()
    chaos_service.shutdown()
    print(f"chaos: {chaos_s:6.1f}s  state={final.state!r}  "
          f"retry_attempts={final.attempts}  "
          f"fired={[(e.kind, e.at) for e in fired]}")

    if final.state != "done":
        failures.append(
            f"chaos job ended {final.state!r} (attempts={final.attempts}) "
            f"instead of self-healing to 'done': {final.error or ''}"[-500:]
        )
    unfired = [e for e in plan.events if e not in fired]
    if unfired:
        failures.append(
            "planned faults never fired (the run outran them?): "
            f"{[(e.kind, e.at) for e in unfired]}"
        )

    mismatches = []
    if final.state == "done":
        recovered = _read_summary(chaos_service, chaos_record.id)
        mismatches = mismatched_keys(reference, recovered)
        status = "bitwise identical" if not mismatches else "DIVERGED"
        print(f"recovered result {status}  "
              f"energy={recovered['energy_kj']:.1f} kJ  "
              f"updates={recovered['num_updates']}")
        for key in mismatches:
            failures.append(
                f"recovered {key} = {recovered.get(key)!r} != "
                f"reference {reference.get(key)!r}"
            )
        overhead = chaos_s / ref_s if ref_s > 0 else float("inf")
        print(f"overhead: {chaos_s:.1f}s / {ref_s:.1f}s = {overhead:.2f}x")
        if overhead > args.max_overhead:
            failures.append(
                f"chaos overhead {overhead:.2f}x exceeds the "
                f"{args.max_overhead:.2f}x gate"
            )

    append_trajectory(ARTIFACT_PATH, bench_record(
        "chaos_smoke",
        metrics={
            "reference_s": round(ref_s, 2),
            "chaos_s": round(chaos_s, 2),
            "attempts": final.attempts,
        },
        context={
            "scenario": args.scenario,
            "shards": args.shards,
            "checkpoint_every": args.checkpoint_every,
            "kill_slot": kill_slot,
            "corrupt_slot": corrupt_slot,
            "state": final.state,
        },
        gates={"max_overhead": args.max_overhead},
        extra={
            "fired": [e.to_dict() for e in fired],
            "mismatches": mismatches,
            "failures": failures,
        },
    ))

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"chaos smoke ok: shard kill + corrupt checkpoint on "
          f"{args.scenario} self-healed bitwise identical to the "
          f"fault-free run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

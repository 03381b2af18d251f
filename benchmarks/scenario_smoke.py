"""Scenario-registry smoke check + megafleet runtime gate (CI).

Two stages, both under fast-forward (the execution mode the scenario layer
exists to feed):

1. **Registry smoke** — every built-in scenario compiles and runs end to
   end at smoke scale (users and horizon shrunk, cohort structure kept),
   and re-running the same spec reproduces the summary bit for bit from
   the compiled content hash (cache hit, identical energy).
2. **Megafleet gate** — ``megafleet-1k`` (1000 users, the full 3 h
   horizon) runs end to end at full scale; the run must finish inside
   ``--max-seconds`` and reproduce its energy total when re-served from
   the spec-hash-keyed cache.

Every invocation appends a record to
``benchmark_artifacts/BENCH_scenarios.json`` — a persistent trajectory of
per-scenario wall-clock and energy so regressions are visible across
commits, not just against the current gate::

    PYTHONPATH=src python benchmarks/scenario_smoke.py --max-seconds 600
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

from repro.metrics.bench import append_trajectory, bench_record
from repro.scenarios import (
    BUILTIN_SCENARIO_NAMES,
    ScenarioRunner,
    compile_scenario,
    get_scenario,
)

ARTIFACT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmark_artifacts",
    "BENCH_scenarios.json",
)

#: Smoke scale: enough structure to exercise every cohort, small enough for
#: seconds-scale CI.  megafleet-1k is excluded here — it runs at full scale
#: in the gate stage.
SMOKE_USERS = 12
SMOKE_SLOTS = 900


def smoke_spec(name: str):
    """The registry spec shrunk to smoke scale (cohort structure intact)."""
    spec = get_scenario(name)
    base = dict(spec.base)
    base.pop("eval_interval_slots", None)
    base["num_train_samples"] = min(int(base.get("num_train_samples", 2500)), 600)
    base["num_test_samples"] = 200
    base["eval_interval_slots"] = 300
    return spec.scaled(
        num_users=min(spec.num_users, SMOKE_USERS),
        total_slots=min(spec.total_slots, SMOKE_SLOTS),
        base=base,
    )


def run_registry_smoke(runner: ScenarioRunner, policy: str) -> list:
    """Run every built-in scenario at smoke scale; returns result records."""
    records = []
    for name in BUILTIN_SCENARIO_NAMES:
        spec = smoke_spec(name)
        start = time.perf_counter()
        first = runner.run_one(spec, policy=policy)
        elapsed = time.perf_counter() - start
        replay = runner.run_one(spec, policy=policy)
        reproducible = bool(replay.from_cache) and replay.energy_j == first.energy_j
        records.append(
            {
                "scenario": name,
                "stage": "smoke",
                "users": spec.num_users,
                "slots": spec.total_slots,
                "spec_hash": spec.spec_hash(),
                "wall_s": round(elapsed, 4),
                "energy_kj": round(first.energy_kj, 6),
                "updates": first.num_updates,
                "reproducible": reproducible,
            }
        )
        status = "ok" if reproducible else "NOT REPRODUCIBLE"
        print(
            f"smoke {name:22s} {spec.num_users:4d}u x {spec.total_slots:5d}  "
            f"{elapsed:6.2f}s  {first.energy_kj:10.2f} kJ  "
            f"updates={first.num_updates:5d}  {status}"
        )
    return records


def run_megafleet_gate(runner: ScenarioRunner, policy: str, max_seconds: float) -> dict:
    """Full-scale megafleet-1k run with a wall-clock gate."""
    spec = get_scenario("megafleet-1k")
    compiled = compile_scenario(spec)
    start = time.perf_counter()
    first = runner.run_one(compiled, policy=policy)
    elapsed = time.perf_counter() - start
    replay = runner.run_one(compiled, policy=policy)
    reproducible = bool(replay.from_cache) and replay.energy_j == first.energy_j
    print(
        f"gate  megafleet-1k          {spec.num_users:4d}u x {spec.total_slots:5d}  "
        f"{elapsed:6.2f}s  {first.energy_kj:10.2f} kJ  updates={first.num_updates}  "
        f"{'ok' if reproducible else 'NOT REPRODUCIBLE'}"
    )
    return {
        "scenario": "megafleet-1k",
        "stage": "gate",
        "users": spec.num_users,
        "slots": spec.total_slots,
        "spec_hash": spec.spec_hash(),
        "wall_s": round(elapsed, 4),
        "max_seconds": max_seconds,
        "energy_kj": round(first.energy_kj, 6),
        "updates": first.num_updates,
        "reproducible": reproducible,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--policy", default="immediate",
                        choices=["immediate", "sync", "offline", "online"],
                        help="scheduling policy for every run (immediate keeps "
                             "the fleet saturated, the worst case for runtime)")
    parser.add_argument("--max-seconds", type=float, default=600.0,
                        help="wall-clock gate for the full-scale megafleet run")
    parser.add_argument("--skip-megafleet", action="store_true",
                        help="registry smoke only (seconds-scale)")
    args = parser.parse_args(argv)

    failures = []
    with tempfile.TemporaryDirectory(prefix="repro-scenario-smoke-") as cache_dir:
        runner = ScenarioRunner(cache_dir=cache_dir, jobs=1, fast_forward=True)
        smoke_records = run_registry_smoke(runner, args.policy)
        gate_record = None
        if not args.skip_megafleet:
            gate_record = run_megafleet_gate(runner, args.policy, args.max_seconds)

    for record in smoke_records:
        if not record["reproducible"]:
            failures.append(f"{record['scenario']}: summary not reproducible from cache")
    if gate_record is not None:
        if not gate_record["reproducible"]:
            failures.append("megafleet-1k: summary not reproducible from cache")
        if gate_record["wall_s"] > args.max_seconds:
            failures.append(
                f"megafleet-1k: {gate_record['wall_s']:.1f}s exceeds the "
                f"{args.max_seconds:.0f}s gate"
            )

    metrics = {"smoke_total_s": round(sum(r["wall_s"] for r in smoke_records), 4)}
    context = {"policy": args.policy}
    if gate_record is not None:
        metrics.update(
            wall_s=gate_record["wall_s"],
            energy_kj=gate_record["energy_kj"],
            updates=gate_record["updates"],
            reproducible=gate_record["reproducible"],
        )
        context.update(
            scenario=gate_record["scenario"],
            stage=gate_record["stage"],
            users=gate_record["users"],
            slots=gate_record["slots"],
            spec_hash=gate_record["spec_hash"],
        )
    append_trajectory(ARTIFACT_PATH, bench_record(
        "scenario_smoke",
        metrics=metrics,
        context=context,
        gates={"max_seconds": args.max_seconds},
        extra={
            "smoke": smoke_records,
            "gate": gate_record,
            "failures": list(failures),
        },
    ), max_runs=100)

    if failures:
        for failure in failures:
            print(f"FAILURE: {failure}", file=sys.stderr)
        return 1
    print(f"scenario smoke ok: {len(smoke_records)} scenarios"
          + ("" if gate_record is None else " + megafleet gate"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

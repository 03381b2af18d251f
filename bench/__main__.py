"""Command line of the benchmark: ``python -m bench <command>``.

``measure`` is the one-workload measurement ``BENCHMARK.json`` names (its last
stdout line is the driver's result object); ``run`` and ``trace`` call it in a
fresh subprocess per workload and round, ``compare`` judges two ``run``
outputs, ``list`` and ``manifest`` print what the benchmark defines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
# The program measured is this checkout's, whatever else is installed or on PYTHONPATH.
sys.path.insert(0, str(ROOT / "src"))

from bench.compare import COUNT_KEYS, compare  # noqa: E402
from bench.host import host_context, host_probe_s, stop_child_processes  # noqa: E402
from bench.measure import END_TO_END, RUN_SECONDS, WORKER_RSS, manifest, measure  # noqa: E402
from bench.trace import ROOT as ROOT_SPAN, layer_metric_specs  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402
from bench.workloads.configs import SCALES  # noqa: E402


def _measure_subprocess(workload: str, seed: int, seconds: float, trace: int, scale: str) -> Dict[str, Any]:
    """One ``measure`` in a fresh process, so peak memory is that run's alone."""
    argv = [
        sys.executable, "-m", "bench", "measure", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--scale", scale,
    ]  # fmt: skip
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    detail, result = done.stdout.strip().splitlines()[-2:]
    return {**json.loads(result), "detail": json.loads(detail)}


#: Per-measurement host record kept beside the scaled times of ``run``.
UNSCALED_KEYS = ("reps", "raw_run_s", "raw_setup_s", "raw_cpu_s", "slowdown", "stolen_frac")


def _summary(samples: List[float], unit: str, bound: float) -> Dict[str, Any]:
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {
        "unit": unit,
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "min": min(samples),
        "n": len(samples),
        "bound": bound,
        "samples": samples,
    }


def cmd_measure(args: argparse.Namespace) -> int:
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result.pop("detail")))
    print(json.dumps(result))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    rounds: List[Dict[str, Dict[str, Any]]] = []
    probes: List[float] = []
    for index in range(args.rounds):
        probes.append(host_probe_s())
        print(f"round {index + 1}/{args.rounds}  host_probe_s {probes[-1]:.4f}", flush=True)
        # Round-robin: a slow phase of the host lands on every workload alike.
        rounds.append(
            {name: _measure_subprocess(name, args.seed, args.seconds, 0, args.scale) for name in WORKLOADS}
        )

    document: Dict[str, Any] = {
        "host": host_context(),
        "seed": args.seed,
        "rounds": args.rounds,
        "seconds": args.seconds,
        "scale": args.scale,
        "host_probe_s": probes,
        "workloads": {},
    }
    failed_anywhere = False
    for name in WORKLOADS:
        runs = [by_name[name] for by_name in rounds]
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        # Every measurement already compared itself with its twin workload;
        # what only a set of rounds can show is that they all simulated one thing.
        attempted += 1
        failed += len({run["detail"]["digest"] for run in runs}) != 1
        record: Dict[str, Any] = {
            "why": WORKLOADS[name].why,
            "metrics": {
                metric: _summary([run["metrics"][metric]["value"] for run in runs], unit, bound)
                for metric, unit, _, bound in END_TO_END
            },
            "failed_frac": failed / attempted,
            # Per round: what the times above were scaled from.
            "unscaled": [{key: run["detail"][key] for key in UNSCALED_KEYS} for run in runs],
            "digest": runs[0]["detail"]["digest"],
            **{key: runs[0]["detail"][key] for key in COUNT_KEYS},
        }
        metric, unit, _, bound = WORKER_RSS
        record["metrics"][metric] = _summary([run["detail"][metric] for run in runs], unit, bound)
        document["workloads"][name] = record
        failed_anywhere = failed_anywhere or failed > 0
        print(f"{name}: {WORKLOADS[name].why}")
        for metric, stats in record["metrics"].items():
            print(
                f"  {metric:<19}{stats['median']:>10.4f} {stats['unit']:<4} "
                f"[q1 {stats['q1']:.4f}, q3 {stats['q3']:.4f}, min {stats['min']:.4f}, "
                f"n {stats['n']}, bound {stats['bound']:.2f}]"
            )
        print(f"  {'failed_frac':<19}{record['failed_frac']:>10.4f} fraction ({failed}/{attempted} checks)")
        print("  " + "  ".join(f"{key} {record[key]:.6g}" for key in COUNT_KEYS))
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 1 if failed_anywhere else 0


def cmd_trace(args: argparse.Namespace) -> int:
    document: Dict[str, Any] = {"host": host_context(), "seed": args.seed, "workloads": {}}
    failed_anywhere = False
    for name in WORKLOADS:
        run = _measure_subprocess(name, args.seed, args.seconds, 1, args.scale)
        values = {key: entry["value"] for key, entry in run["metrics"].items()}
        document["workloads"][name] = run["metrics"]
        failed_anywhere = failed_anywhere or run["failed"] > 0
        root = values[f"{ROOT_SPAN}.total_s"]
        print(
            f"{name}: root {root:.4f} s  trace_overhead {values['trace_overhead']:.3f}  "
            f"drive_fleet_loop self {values['sim.shard.drive_fleet_loop.self_s'] / root:.1%} of root  "
            f"failed checks {run['failed']}/{run['attempted']}"
        )
        for key, entry in run["metrics"].items():
            if entry["value"]:
                share = f"  {entry['value'] / root:6.1%}" if key.endswith(".self_s") else ""
                print(f"  {key:<44}{entry['value']:>14.6g} {entry['unit']}{share}")
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 1 if failed_anywhere else 0


def cmd_compare(args: argparse.Namespace) -> int:
    lines, ok = compare(args.a, args.b)
    print("\n".join(lines))
    return 0 if ok else 1


def cmd_list(args: argparse.Namespace) -> int:
    print("workloads:")
    for workload in WORKLOADS.values():
        print(f"  {workload.name:<22}{workload.why}")
    print("end-to-end metrics (per workload):")
    for name, unit, better, bound in (*END_TO_END, WORKER_RSS):
        print(f"  {name:<44}{unit:<9}{better} is better, bound {bound:.2f}")
    print(f"  {'failed_frac':<44}{'fraction':<9}must be 0")
    print("per-layer metrics (traced run):")
    for name, unit, better in layer_metric_specs():
        print(f"  {name:<44}{unit:<9}{better} is better")
    return 0


def cmd_manifest(args: argparse.Namespace) -> int:
    print(json.dumps(manifest(), indent=1))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler: Any, help: str, runs: bool = False) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help)
        sub.set_defaults(handler=handler)
        if runs:
            sub.add_argument("--seed", type=int, default=0)
            sub.add_argument("--seconds", type=float, default=RUN_SECONDS, help="length of one measurement")
            sub.add_argument("--scale", choices=SCALES, default="full")
        return sub

    sub = add("measure", cmd_measure, "measure one workload; last line is the driver's result", runs=True)
    sub.add_argument("--workload", choices=list(WORKLOADS), required=True)
    sub.add_argument("--trace", type=int, choices=(0, 1), default=0)

    sub = add("run", cmd_run, "every workload, round-robin, a fresh process per run", runs=True)
    sub.add_argument("--rounds", type=int, default=5)
    sub.add_argument("--out", help="also write the results as JSON here")

    sub = add("trace", cmd_trace, "one traced measurement per workload: per-layer metrics", runs=True)
    sub.add_argument("--out", help="also write the metrics as JSON here")

    sub = add("compare", cmd_compare, "judge run output B against run output A")
    sub.add_argument("a")
    sub.add_argument("b")

    add("list", cmd_list, "workloads with their reasons, and every metric name with its unit")
    add("manifest", cmd_manifest, "print the content of BENCHMARK.json")

    args = parser.parse_args(argv)
    if args.command == "run" and args.rounds < 3:
        parser.error("--rounds must be at least 3: quartiles need three samples")
    try:
        return args.handler(args)
    finally:
        # On every path out: the driver refuses a benchmark that leaves a process behind.
        stop_child_processes()


if __name__ == "__main__":
    sys.exit(main())

"""The acceptance measurement of the benchmark's contract, as run for the files here.

``python3 bench/evidence/tenseed.py CHECKOUT OUT.json FIRST_SEED`` runs
``BENCHMARK.json``'s command of CHECKOUT once per workload and seed for ten
consecutive seeds (seeds outermost, so host drift lands on every workload)
and writes, per workload and end-to-end metric, the ten values, their median
and their spread: the distance between the first and third quartile as
``statistics.quantiles(values, n=4)`` gives them, over the median.  The
``detail`` line of every invocation (repetitions, unscaled seconds, host
slowdown, stolen share) is kept beside them.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

SEEDS = 10


def main(checkout: str, out: str, first_seed: int) -> None:
    with open(f"{checkout}/BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [workload["name"] for workload in spec["workloads"]]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    values = {name: {metric: [] for metric in bounds} for name in names}
    details = {name: [] for name in names}
    walls = []
    for seed in range(first_seed, first_seed + SEEDS):
        for name in names:
            argv = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]  # fmt: skip
            start = time.perf_counter()
            done = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
            walls.append(time.perf_counter() - start)
            detail, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: failed checks {detail['failed_checks']}")
            details[name].append(detail)
            for metric in bounds:
                values[name][metric].append(result["metrics"][metric]["value"])
            print(f"seed {seed} {name}: {walls[-1]:.1f} s", flush=True)

    report = {"first_seed": first_seed, "invocation_wall_s": walls, "metrics": {}, "detail": details}
    for name in names:
        for metric, bound in bounds.items():
            q1, _, q3 = statistics.quantiles(values[name][metric], n=4)
            median = statistics.median(values[name][metric])
            spread = (q3 - q1) / median
            report["metrics"][f"{name}/{metric}"] = {
                "median": median, "spread": spread, "bound": bound, "values": values[name][metric],
            }  # fmt: skip
            print(f"{name:<24}{metric:<12} median {median:9.4f}  spread {spread:.3f}  bound {bound:.2f}")
    print(f"invocations: mean {statistics.mean(walls):.1f} s, max {max(walls):.1f} s, sum {sum(walls):.0f} s")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]))

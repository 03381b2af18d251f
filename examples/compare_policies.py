#!/usr/bin/env python3
"""Compare all four scheduling schemes of the paper on identical workloads.

Runs Immediate, Sync-SGD (FedAvg), Offline (knapsack look-ahead) and the
Lyapunov Online scheduler on the same fleet, arrival trace and dataset, and
prints the Fig. 4/5-style comparison: energy, updates, convergence and the
time needed to reach accuracy objectives.

Run with::

    python examples/compare_policies.py                 # ~1 minute
    python examples/compare_policies.py --slots 10800   # the 3-hour setting
"""

from __future__ import annotations

import argparse

from repro import (
    ImmediatePolicy,
    OfflinePolicy,
    OnlinePolicy,
    SimulationConfig,
    SimulationEngine,
    SyncPolicy,
)
from repro.analysis.reporting import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=25)
    parser.add_argument("--slots", type=int, default=3600)
    parser.add_argument("--arrival-prob", type=float, default=0.003)
    parser.add_argument("--v", type=float, default=4000.0)
    parser.add_argument("--staleness-bound", type=float, default=500.0)
    parser.add_argument("--offline-bound", type=float, default=1000.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--targets", type=float, nargs="+", default=[0.30, 0.40, 0.45])
    args = parser.parse_args()

    config = SimulationConfig(
        num_users=args.users,
        total_slots=args.slots,
        app_arrival_prob=args.arrival_prob,
        seed=args.seed,
        eval_interval_slots=max(args.slots // 30, 60),
    )
    policies = {
        "immediate": ImmediatePolicy(),
        "sync": SyncPolicy(),
        "offline": OfflinePolicy(staleness_bound=args.offline_bound, window_slots=500),
        "online": OnlinePolicy(v=args.v, staleness_bound=args.staleness_bound),
    }

    results = {}
    for name, policy in policies.items():
        print(f"running {name} ...")
        results[name] = SimulationEngine(config, policy).run()

    rows = []
    for name, result in results.items():
        rows.append([
            name,
            result.total_energy_kj(),
            100.0 * (1.0 - result.total_energy_j() / results["immediate"].total_energy_j()),
            result.num_updates,
            result.final_accuracy(),
            result.mean_queue_length(),
        ])
    print()
    print(format_table(
        ["scheme", "energy (kJ)", "saving vs immediate %", "updates",
         "final accuracy", "mean Q(t)"],
        rows,
        float_format=".2f",
        title="Energy and convergence comparison (Fig. 4a / Fig. 5b)",
    ))

    tta_rows = []
    for name, result in results.items():
        for target in args.targets:
            tta_rows.append([name, target, result.time_to_accuracy(target)])
    print()
    print(format_table(
        ["scheme", "accuracy objective", "wall-clock time (s)"],
        tta_rows,
        float_format=".0f",
        title="Time to reach accuracy objectives (Fig. 5c; '-' = not reached)",
    ))


if __name__ == "__main__":
    main()

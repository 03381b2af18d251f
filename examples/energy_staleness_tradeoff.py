#!/usr/bin/env python3
"""Explore the [O(1/V), O(V)] energy-staleness trade-off (Fig. 4).

Sweeps the Lyapunov control knob ``V`` for a chosen staleness bound ``Lb``,
prints energy, queue backlogs and the Theorem 1 bounds, and recommends an
operating point using the knee heuristic (the paper eyeballs V around 4000).

Run with::

    python examples/energy_staleness_tradeoff.py
    python examples/energy_staleness_tradeoff.py --bounds 100 1000 --slots 10800
"""

from __future__ import annotations

import argparse

from repro import ImmediatePolicy, OfflinePolicy, OnlinePolicy, SimulationConfig, SimulationEngine
from repro.analysis.reporting import format_table
from repro.core.queues import LyapunovAnalyzer
from repro.core.tradeoff import SweepPoint, TradeoffAnalyzer, theorem1_energy_bound


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=15)
    parser.add_argument("--slots", type=int, default=2400)
    parser.add_argument("--arrival-prob", type=float, default=0.004)
    parser.add_argument("--v-values", type=float, nargs="+",
                        default=[0.0, 2e3, 1e4, 4e4, 1e5])
    parser.add_argument("--bounds", type=float, nargs="+", default=[500.0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = SimulationConfig(
        num_users=args.users,
        total_slots=args.slots,
        app_arrival_prob=args.arrival_prob,
        seed=args.seed,
        eval_interval_slots=max(args.slots // 10, 120),
    )
    immediate = SimulationEngine(config, ImmediatePolicy()).run()
    offline = SimulationEngine(
        config, OfflinePolicy(staleness_bound=max(args.bounds), window_slots=500)
    ).run()
    print(f"immediate scheduling energy: {immediate.total_energy_kj():.1f} kJ")
    print(f"offline (knapsack) energy:   {offline.total_energy_kj():.1f} kJ\n")

    for bound in args.bounds:
        points, rows = [], []
        for v in args.v_values:
            result = SimulationEngine(
                config, OnlinePolicy(v=v, staleness_bound=bound)
            ).run()
            point = SweepPoint(
                v=v,
                energy_kj=result.total_energy_kj(),
                mean_queue=result.mean_queue_length(),
                mean_virtual_queue=result.mean_virtual_queue_length(),
            )
            points.append(point)
            rows.append([v, point.energy_kj, point.mean_queue, point.mean_virtual_queue,
                         100.0 * (1.0 - point.energy_kj / immediate.total_energy_kj())])
        print(format_table(
            ["V", "energy (kJ)", "mean Q(t)", "mean H(t)", "saving vs immediate %"],
            rows,
            float_format=".2f",
            title=f"V sweep with staleness bound Lb={bound:.0f}",
        ))

        analyzer = TradeoffAnalyzer(points)
        lyapunov = LyapunovAnalyzer(
            staleness_bound=bound,
            max_arrival=config.num_users,
            max_service=config.num_users,
            max_gap=config.num_users * 5.0,
        )
        p_star_kw = offline.total_energy_kj() / config.total_seconds()
        print(f"\n  knee of the trade-off (recommended V): {analyzer.knee_v():.0f}")
        print(f"  approximation factor vs offline: "
              f"{analyzer.approximation_factor(offline.total_energy_kj()):.2f}")
        print(f"  Theorem 1 energy bound at V={args.v_values[-1]:.0f}: "
              f"{theorem1_energy_bound(lyapunov.bound_constant(), args.v_values[-1], p_star_kw):.3f} kW "
              f"(time-averaged)\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Extension example: diurnal application-usage patterns (Section VIII).

The paper's conclusion argues that the online scheme "can adapt to different
diurnal and nocturnal application usage patterns by taking advantage of the
common temporal activities from the users, while keeping the devices in low
power state during the rest of the time".  This example exercises that claim:
it simulates a compressed day in which application arrivals follow a
day/night profile, and compares the online scheduler against immediate
scheduling on energy, accuracy and when the training jobs actually ran.

Run with::

    python examples/diurnal_usage.py
    python examples/diurnal_usage.py --slots 7200 --users 25
"""

from __future__ import annotations

import argparse

from repro import ImmediatePolicy, OnlinePolicy, SimulationConfig, SimulationEngine
from repro.analysis.reporting import format_table


def corun_fraction(result) -> float:
    """Fraction of started training jobs that co-ran with an application."""
    started = result.trace.corun_jobs + result.trace.background_jobs
    if started == 0:
        return 0.0
    return result.trace.corun_jobs / started


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=15)
    parser.add_argument("--slots", type=int, default=3600,
                        help="horizon in slots; the diurnal period is compressed to fit it")
    parser.add_argument("--v", type=float, default=20000.0)
    parser.add_argument("--staleness-bound", type=float, default=500.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = SimulationConfig(
        num_users=args.users,
        total_slots=args.slots,
        app_arrival_prob=0.004,
        seed=args.seed,
        eval_interval_slots=max(args.slots // 10, 120),
        diurnal_arrivals=True,
    )
    online = SimulationEngine(
        config, OnlinePolicy(v=args.v, staleness_bound=args.staleness_bound)
    ).run()
    immediate = SimulationEngine(config, ImmediatePolicy()).run()

    rows = [
        ["immediate", immediate.total_energy_kj(), immediate.final_accuracy(),
         immediate.num_updates, 100.0 * corun_fraction(immediate)],
        ["online", online.total_energy_kj(), online.final_accuracy(),
         online.num_updates, 100.0 * corun_fraction(online)],
    ]
    print(format_table(
        ["scheme", "energy (kJ)", "final accuracy", "updates", "co-running jobs %"],
        rows,
        float_format=".2f",
        title="Diurnal application-usage pattern (day/night arrival profile)",
    ))
    print(f"\nEnergy saving of the online scheduler: "
          f"{100.0 * online.energy_saving_vs(immediate):.1f}%")
    print("The online scheduler concentrates training inside the daytime activity "
          "window (higher co-running fraction) and idles the fleet at night.")


if __name__ == "__main__":
    main()

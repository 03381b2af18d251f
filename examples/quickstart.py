#!/usr/bin/env python3
"""Quickstart: run the energy-aware online scheduler on a small federation.

This example builds a small federated simulation (10 battery-powered devices,
a 20-minute horizon), runs it once with the paper's Lyapunov online scheduler
and once with naive immediate scheduling, and prints the headline numbers:
system energy, energy saving, test accuracy and queue backlogs.

Run with::

    python examples/quickstart.py            # small, ~10 seconds
    python examples/quickstart.py --paper    # the full Section VII setting
"""

from __future__ import annotations

import argparse

from repro import (
    ImmediatePolicy,
    OnlinePolicy,
    SimulationConfig,
    SimulationEngine,
)
from repro.analysis.reporting import format_table


def build_config(paper_scale: bool, seed: int) -> SimulationConfig:
    """The paper-scale setting, or a laptop-friendly shrink of it."""
    if paper_scale:
        return SimulationConfig(seed=seed)
    # The short horizon only fits a few dozen updates, so the quickstart uses
    # an easier synthetic task (and a larger step size) than the paper-scale
    # default to show visible convergence within ~10 seconds of simulation.
    return SimulationConfig(
        num_users=10,
        total_slots=1200,
        app_arrival_prob=0.005,
        seed=seed,
        num_train_samples=1200,
        num_test_samples=500,
        eval_interval_slots=300,
        class_separation=1.8,
        clusters_per_class=2,
        label_noise=0.05,
        learning_rate=0.02,
    )



def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paper", action="store_true", help="run the full 25-user, 3-hour setting")
    parser.add_argument("--v", type=float, default=4000.0, help="Lyapunov control knob V")
    parser.add_argument("--staleness-bound", type=float, default=500.0, help="staleness budget Lb")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = build_config(args.paper, args.seed)

    print(f"Simulating {config.num_users} devices for {config.total_seconds():.0f} s "
          f"(app arrival probability {config.app_arrival_prob} per slot)\n")

    online = SimulationEngine(
        config, OnlinePolicy(v=args.v, staleness_bound=args.staleness_bound)
    ).run()
    immediate = SimulationEngine(config, ImmediatePolicy()).run()

    rows = [
        ["immediate", immediate.total_energy_kj(), immediate.final_accuracy(),
         immediate.num_updates, immediate.mean_queue_length()],
        [f"online (V={args.v:.0f}, Lb={args.staleness_bound:.0f})",
         online.total_energy_kj(), online.final_accuracy(),
         online.num_updates, online.mean_queue_length()],
    ]
    print(format_table(
        ["scheme", "energy (kJ)", "final accuracy", "updates", "mean Q(t)"], rows
    ))
    print(f"\nEnergy saving of the online scheduler vs immediate scheduling: "
          f"{100.0 * online.energy_saving_vs(immediate):.1f}%")
    print(f"Co-running jobs started by the online scheduler: {online.trace.corun_jobs} "
          f"(background-only jobs: {online.trace.background_jobs})")


if __name__ == "__main__":
    main()

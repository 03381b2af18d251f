"""Batched-training equivalence + performance smoke check (CI gate).

Runs one Fig. 5-style convergence configuration twice — serial per-client
training and the batched :class:`repro.fl.batch.BatchTrainer` backend —
then:

1. asserts the two runs are *equivalent*: identical decision counters,
   update ordering, lags and Eq. (10) energy, and accuracy / loss / gap
   traces within ``--tolerance`` (the batched tensor program matches the
   serial trainer to floating-point reduction order);
2. fails on a performance collapse: serial/batched wall-clock must stay
   at or above ``--min-speedup``.  Since the serial path trains in place
   on flat buffers (ISSUE 15) the batched path no longer wins at this
   size (the ``serial_path=flat-inplace`` records of
   ``BENCH_training.json``: 0.82–0.86x at the CI config, 1.04x at
   ``--paper-scale``; every run made is listed in the CI job comment), so
   the default floor of 0.5 guards against the batched path becoming more
   than twice as slow as serial and claims nothing about it being faster.

Every run appends a record to ``benchmark_artifacts/BENCH_training.json``
— a persistent trajectory of (serial seconds, batched seconds, speedup,
divergence) so regressions are visible across commits, not just against
the current gate.

Locally, ``--paper-scale`` runs the full 25-user x 10 800-slot Section
VII.B horizon and ``--assert-speedup X`` turns a measured speedup into a
hard gate::

    PYTHONPATH=src python benchmarks/training_smoke.py --paper-scale --assert-speedup 0.8
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro.core.policies import ImmediatePolicy
from repro.metrics.bench import append_trajectory, bench_record
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine

ARTIFACT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmark_artifacts",
    "BENCH_training.json",
)


def convergence_config(paper_scale: bool) -> SimulationConfig:
    """A training-dominated convergence run (the Fig. 5 regime).

    The CI default keeps the paper's 25-user fleet and per-slot mechanics
    but shortens the horizon so the smoke check stays in seconds; 1999
    training samples force ragged shards (1999 / 25), exercising the
    masked-tail path of the batched trainer.
    """
    if paper_scale:
        scale = dict(total_slots=10_800, num_train_samples=2500)
    else:
        scale = dict(total_slots=2_400, num_train_samples=1999)
    return SimulationConfig(
        num_users=25,
        app_arrival_prob=0.001,
        seed=0,
        num_test_samples=500,
        eval_interval_slots=300,
        trace_interval_slots=30,
        **scale,
    )


def run_once(config: SimulationConfig, batched: bool, repeats: int):
    best = None
    result = None
    for _ in range(repeats):
        engine = SimulationEngine(
            config, ImmediatePolicy(), batched_training=batched, profile=True
        )
        start = time.perf_counter()
        result = engine.run()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def digest_divergence(serial, batched, tolerance: float):
    """(mismatched observable names, worst relative trace divergence)."""

    def rel(a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != b.shape:
            return float("inf")
        if a.size == 0:
            return 0.0
        scale = np.maximum(np.abs(a), 1e-12)
        return float(np.max(np.abs(a - b) / scale))

    exact = {
        "decision counters": serial.trace.decisions == batched.trace.decisions,
        "update count": serial.num_updates == batched.num_updates,
        "update order": [u.user_id for u in serial.trace.update_samples]
        == [u.user_id for u in batched.trace.update_samples],
        "update lags": [u.lag for u in serial.trace.update_samples]
        == [u.lag for u in batched.trace.update_samples],
        "total energy": serial.total_energy_j() == batched.total_energy_j(),
        "evaluation grid": serial.accuracy.times() == batched.accuracy.times(),
    }
    divergences = {
        "accuracy curve": rel(serial.accuracy.accuracies(), batched.accuracy.accuracies()),
        "train losses": rel(
            [u.train_loss for u in serial.trace.update_samples],
            [u.train_loss for u in batched.trace.update_samples],
        ),
        "gradient gaps": rel(
            [u.gradient_gap for u in serial.trace.update_samples],
            [u.gradient_gap for u in batched.trace.update_samples],
        ),
    }
    mismatches = [name for name, ok in exact.items() if not ok]
    mismatches += [name for name, value in divergences.items() if value > tolerance]
    return mismatches, max(divergences.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--paper-scale", action="store_true",
                        help="run the full 25-user x 10800-slot Fig. 5 config")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing repetitions (best-of is reported)")
    parser.add_argument("--tolerance", type=float, default=1e-8,
                        help="maximum relative divergence of accuracy / loss "
                             "/ gap traces between the two trainers")
    parser.add_argument("--min-speedup", type=float, default=0.5,
                        help="fail when serial/batched wall-clock falls below "
                             "this factor")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        help="additionally require serial/batched >= this factor")
    args = parser.parse_args(argv)

    config = convergence_config(args.paper_scale)
    t_serial, serial = run_once(config, batched=False, repeats=args.repeats)
    t_batched, batched = run_once(config, batched=True, repeats=args.repeats)

    mismatches, worst = digest_divergence(serial, batched, args.tolerance)
    speedup = t_serial / t_batched if t_batched > 0 else float("inf")
    shares = serial.timing_shares() or {}
    print(f"serial: {t_serial:.3f}s   batched: {t_batched:.3f}s   "
          f"speedup: {speedup:.2f}x   updates: {batched.num_updates}   "
          f"max divergence: {worst:.2e}")
    print("serial wall-clock shares: "
          + "  ".join(f"{name}={100.0 * value:.0f}%" for name, value in shares.items()))

    append_trajectory(ARTIFACT_PATH, bench_record(
        "training_smoke",
        metrics={
            "serial_s": round(t_serial, 4),
            "batched_s": round(t_batched, 4),
            "speedup": round(speedup, 3),
            "max_divergence": worst,
            "updates": batched.num_updates,
            "serial_training_share": round(shares.get("training", 0.0), 4),
        },
        context={
            # The ratio's denominator: records taken against the earlier
            # flatten/unflatten serial round are a different comparison and
            # must not serve as this trajectory's regression baseline.
            "serial_path": "flat-inplace",
            "paper_scale": bool(args.paper_scale),
            "num_users": config.num_users,
            "total_slots": config.total_slots,
        },
        gates={
            "min_speedup": args.min_speedup,
            "max_divergence": args.tolerance,
        },
    ))

    if mismatches:
        print("DIVERGENCE: batched training differs from serial on:",
              ", ".join(mismatches), file=sys.stderr)
        return 1
    if speedup < args.min_speedup:
        print(f"REGRESSION: batched training speedup {speedup:.2f}x below the "
              f"{args.min_speedup:.2f}x gate", file=sys.stderr)
        return 1
    if args.assert_speedup is not None and speedup < args.assert_speedup:
        print(f"REGRESSION: speedup {speedup:.2f}x below required "
              f"{args.assert_speedup:.2f}x", file=sys.stderr)
        return 1
    print("training smoke: OK (equivalent within tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fast-forward equivalence + performance smoke check (CI gate).

Runs one sparse configuration through the engine twice — slot-by-slot
and with event-horizon fast-forward — then:

1. asserts the two runs are *bitwise identical* on every observable trace
   (energy totals and per-slot series, slot samples, applied updates, queue
   histories, accuracy curve, per-user gap traces, battery state); and
2. fails on a gross performance regression: the fast-forward run must not
   be more than ``--max-slowdown`` times slower than the slot-by-slot run
   (CI machines are noisy, so the default guards against a 2x regression
   rather than asserting a speedup).

Locally, ``--paper-scale`` runs the paper-scale sparse demonstration
(25 users x 10 800 slots, p=0.001, battery-gated overnight fleet) and
``--assert-speedup X`` turns the measured speedup into a hard gate.  The
recorded ratio is 4.7-5.3x (``benchmark_artifacts/BENCH_fleet_plane.json``:
0.45 s slot-by-slot, 0.084-0.096 s fast-forward on 2 vCPUs; it was 7.6-8.4x
while the slot-by-slot path cost twice as much — both paths run one slot
step now, so the ratio fell while both times fell), which leaves room for::

    PYTHONPATH=src python benchmarks/fastforward_smoke.py --paper-scale --assert-speedup 3
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.policies import ImmediatePolicy
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine

#: Phones only: dev boards have no battery and would train forever, which
#: defeats the point of the drained-overnight scenario.
PHONE_MIX = {"pixel2": 1.0 / 3, "nexus6": 1.0 / 3, "nexus6p": 1.0 / 3}


def overnight_config(paper_scale: bool) -> SimulationConfig:
    """A sparse, battery-gated fleet: trains until drained, then idles."""
    if paper_scale:
        scale = dict(num_users=25, total_slots=10_800, trace_interval_slots=30)
    else:
        scale = dict(num_users=12, total_slots=3_000, trace_interval_slots=10)
    return SimulationConfig(
        app_arrival_prob=0.001,
        seed=0,
        num_train_samples=500,
        num_test_samples=200,
        hidden_dims=(32,),
        eval_interval_slots=max(scale["total_slots"] // 10, 120),
        device_mix=PHONE_MIX,
        battery_capacity_j=1500.0,
        battery_charge_rate_w=0.0,
        min_battery_soc=0.2,
        **scale,
    )


def run_once(config: SimulationConfig, fast_forward: bool, repeats: int):
    best = None
    result = None
    for _ in range(repeats):
        engine = SimulationEngine(
            config, ImmediatePolicy(), fast_forward=fast_forward
        )
        start = time.perf_counter()
        result = engine.run()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def digest_mismatches(config, slow, fast):
    """Names of every observable trace on which the two runs differ."""
    checks = {
        "decision counters": slow.trace.decisions == fast.trace.decisions,
        "total energy": slow.total_energy_j() == fast.total_energy_j(),
        "per-slot energy series": (
            slow.accountant.per_slot_totals() == fast.accountant.per_slot_totals()
        ),
        "slot samples": slow.trace.slot_samples == fast.trace.slot_samples,
        "applied updates": slow.trace.update_samples == fast.trace.update_samples,
        "queue history": slow.queue_history == fast.queue_history,
        "virtual queue history": (
            slow.virtual_queue_history == fast.virtual_queue_history
        ),
        "accuracy curve": (
            slow.accuracy.accuracies() == fast.accuracy.accuracies()
            and slow.accuracy.times() == fast.accuracy.times()
        ),
        "battery SoC": slow.final_battery_soc == fast.final_battery_soc,
        "per-user gap traces": all(
            slow.trace.user_gap_trace(u) == fast.trace.user_gap_trace(u)
            for u in range(config.num_users)
        ),
        "per-user energy breakdowns": all(
            slow.accountant.user_breakdown(u) == fast.accountant.user_breakdown(u)
            for u in range(config.num_users)
        ),
    }
    return [name for name, ok in checks.items() if not ok]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--paper-scale", action="store_true",
                        help="run the full 25-user x 10800-slot sparse config")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing repetitions (best-of is reported)")
    parser.add_argument("--max-slowdown", type=float, default=2.0,
                        help="fail when ff wall-clock exceeds this multiple "
                             "of the slot-by-slot wall-clock")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        help="additionally require slot/ff >= this factor")
    args = parser.parse_args(argv)

    config = overnight_config(args.paper_scale)
    t_slow, slow = run_once(config, fast_forward=False, repeats=args.repeats)
    t_fast, fast = run_once(config, fast_forward=True, repeats=args.repeats)

    mismatches = digest_mismatches(config, slow, fast)
    speedup = t_slow / t_fast if t_fast > 0 else float("inf")
    print(f"slot-by-slot: {t_slow:.3f}s   fast-forward: {t_fast:.3f}s   "
          f"speedup: {speedup:.2f}x   updates: {fast.num_updates}")

    if mismatches:
        print("DIVERGENCE: fast-forward differs from slot-by-slot on:",
              ", ".join(mismatches), file=sys.stderr)
        return 1
    if t_fast > args.max_slowdown * t_slow:
        print(f"REGRESSION: fast-forward is {t_fast / t_slow:.2f}x slower than "
              f"slot-by-slot (limit {args.max_slowdown}x)", file=sys.stderr)
        return 1
    if args.assert_speedup is not None and speedup < args.assert_speedup:
        print(f"REGRESSION: speedup {speedup:.2f}x below required "
              f"{args.assert_speedup:.2f}x", file=sys.stderr)
        return 1
    print("fast-forward smoke: OK (bitwise identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

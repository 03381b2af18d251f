"""Fast-forward equivalence + performance smoke check (CI gate).

Runs one sparse configuration through the engine twice — slot-by-slot
and with event-horizon fast-forward — then:

1. asserts the two runs are *bitwise identical* on every observable trace
   (energy totals and per-slot series, slot samples, applied updates, queue
   histories, accuracy curve, per-user gap traces, battery state); and
2. fails on a gross performance regression: the fast-forward run must not
   be more than ``--max-slowdown`` times slower than the slot-by-slot run
   (CI machines are noisy, so the default guards against a 2x regression
   rather than asserting a speedup); then
3. runs the online (V = 4000) and offline policies on the paper population
   (25 users x 3 600 slots, p=0.001) both ways, asserts them bitwise
   identical and that certified-idle regions fired (fewer ``run_slot``
   calls than slots).  No timing gate rides on this stage.

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

from repro.core.offline import OfflinePolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import ImmediatePolicy
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.shard import FleetShard

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


def paper_config() -> SimulationConfig:
    """The paper's population (Sec. VII.B), one hour: ready users wait long
    stretches for a co-running app, which the policies keep idle."""
    return SimulationConfig(
        num_users=25, total_slots=3_600, app_arrival_prob=0.001, seed=0
    )


def certified_regions(config: SimulationConfig):
    """Online (V = 4000) and offline runs, slot-by-slot and with fast-forward.

    Returns ``(name, mismatches, executed slots with fast-forward)`` per
    policy; fewer executed slots than ``total_slots`` means the
    certified-idle region path fired.
    """
    executed = []
    run_slot = FleetShard.run_slot

    def counted(shard, slot, *args):
        executed.append(slot)
        return run_slot(shard, slot, *args)

    FleetShard.run_slot = counted
    try:
        rows = []
        for name, make in (("online", lambda: OnlinePolicy(v=4000.0)), ("offline", OfflinePolicy)):
            slow = SimulationEngine(config, make(), fast_forward=False).run()
            executed.clear()
            fast = SimulationEngine(config, make(), fast_forward=True).run()
            rows.append((name, digest_mismatches(config, slow, fast), len(executed)))
        return rows
    finally:
        FleetShard.run_slot = run_slot


def digest_mismatches(config, slow, fast):
    """Names of every observable trace on which the two runs differ."""
    checks = {
        "decision counters": slow.trace.decisions == fast.trace.decisions,
        "decision evaluations": slow.decision_evaluations == fast.decision_evaluations,
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

    config = paper_config()
    for name, mismatches, executed in certified_regions(config):
        print(f"{name} on the paper population: {executed} of "
              f"{config.total_slots} slots ran the slot path")
        if mismatches:
            print(f"DIVERGENCE: {name} fast-forward differs from slot-by-slot on:",
                  ", ".join(mismatches), file=sys.stderr)
            return 1
        if executed >= config.total_slots:
            print(f"REGRESSION: no certified-idle region fired under {name}",
                  file=sys.stderr)
            return 1
    print("fast-forward smoke: OK (bitwise identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

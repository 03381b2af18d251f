"""One measurement of one workload: repeat build + run for a fixed time.

This is what ``BENCHMARK.json``'s ``command`` executes.  Load model: closed,
one run at a time, generated by this process; the only concurrency is the
engine's own shard workers.  Each repetition builds fresh engines from the
seed and runs them; timings are seconds on an undisturbed reference host
(:mod:`bench.hostspeed`), reported as the median over repetitions, peak
memory from the first repetition (before anything of an earlier repetition
can inflate it).  A traced measurement alternates untraced and traced
repetitions, so ``trace_overhead`` compares like with like; end-to-end
metrics never come from a traced repetition.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from bench.check import Check, digest, result_checks, shm_check, sim_counts
from bench.hostspeed import HostSpeed, Phase
from bench.trace import SETUP_SPANS, Tracer, layer_metric_specs
from bench.workloads import WORKLOADS, Workload

#: End-to-end metrics: (name, unit, better, regression bound).  A bound is
#: about three times the spread (inter-quartile range / median over ten
#: seeds) the metric shows on the sizing host; the ten-seed sets behind them
#: are in ``bench/evidence/``.  ``setup_s`` is the shortest phase and gets the
#: widest bound.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("run_s", "s", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.20),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

#: Reported by ``bench run`` beside the end-to-end metrics.  The largest shard
#: worker's ``ru_maxrss`` reads 0 on single-process workloads and an end-to-end
#: metric of ``BENCHMARK.json`` may never, so there it is the per-layer metric
#: ``sim.shard.worker_peak_rss_mb``.
WORKER_RSS = ("peak_rss_worker_mb", "MiB", "lower", 0.10)

#: Length of one measurement as ``BENCHMARK.json`` fixes it: long enough for
#: five to fifteen repetitions of every workload, short enough that the
#: driver's 158 invocations stay inside its time cap.
RUN_SECONDS = 15

#: Per-layer metrics that are span durations, normalised like the end-to-end times.
LAYER_TIME_KEYS = tuple(
    key
    for key, unit, _ in layer_metric_specs()
    if unit in ("s", "us") and not key.startswith("host.")
)

#: Fewest repetitions of one measurement: two digests are needed to show
#: that the same seed simulates the same thing twice.
MIN_REPS = 2

#: A repetition that lost at most this share of its vCPU time counts as undisturbed.
MAX_STOLEN_FRAC = 0.02


def manifest() -> Dict[str, Any]:
    """The content of ``BENCHMARK.json``, from the tables the code runs on."""
    return {
        "command": ["python3", "-m", "bench", "measure"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in layer_metric_specs()
        ],
    }


@dataclass
class Rep:
    """What one build + run + finish of a workload produced."""

    #: The two timed phases as the sampler saw them: raw seconds, slowdown,
    #: steal, and from those the seconds on an undisturbed reference host.
    setup: Phase
    run: Phase
    peak_rss_mb: float
    worker_peak_rss_mb: float
    digest: str
    counts: Dict[str, float]
    checks: List[Check]
    layer: Dict[str, float] = field(default_factory=dict)


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _peak_rss_mb() -> float:
    """High-water resident set of this process: ``VmHWM``, else ``ru_maxrss``.

    ``ru_maxrss`` survives ``execve``, so it never reads below the resident
    set of whatever process launched this one (a 600 MiB launcher makes a
    9 MiB child read 600); ``VmHWM`` belongs to this process's own address
    space and is otherwise the same number.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except (OSError, IndexError, ValueError):
        pass
    return _maxrss_mb(resource.RUSAGE_SELF)


def run_once(workload: Workload, seed: int, scale: str, tracer: Optional[Tracer] = None) -> Rep:
    """Build, run, check and tear down one repetition."""
    gc.collect()
    if tracer is not None:
        tracer.reset()
    with HostSpeed() as host:
        start = host.mark()
        built = workload.build(seed, scale)
        built_at = host.mark()
        results = workload.run(built)
        done_at = host.mark()
    setup, run = host.phase(start, built_at), host.phase(built_at, done_at)
    peak_rss_mb = _peak_rss_mb()
    # RUSAGE_CHILDREN also carries whatever the launcher reaped before execve.
    worker_peak_rss_mb = _maxrss_mb(resource.RUSAGE_CHILDREN) if workload.sharded else 0.0

    extras = workload.finish(built)
    checks: List[Check] = []
    for label, result in results.items():
        checks.extend(result_checks(label, result))
    checks.extend(workload.checks(results, scale))
    if workload.sharded:
        checks.append(shm_check())
    layer: Dict[str, float] = {}
    if tracer is not None:
        layer = tracer.layer_metrics(results)
        layer.update(extras)
        checks.append(("span self-times sum to the root within 1%", layer.pop("_self_sum_error") < 0.01))
        checks.append(("no span is shorter than its children", layer.pop("_min_self_s") > -1e-6))
        # Spans are in raw seconds and carry the sampling handler's time;
        # bring them onto the scale of setup_s and run_s, handler time spread evenly.
        setup_to_quiet = setup.quiet_wall_s / (built_at.at - start.at)
        run_to_quiet = run.quiet_wall_s / (done_at.at - built_at.at)
        for key in LAYER_TIME_KEYS:
            layer[key] *= setup_to_quiet if key.startswith(SETUP_SPANS) else run_to_quiet
    return Rep(
        setup=setup,
        run=run,
        peak_rss_mb=peak_rss_mb,
        worker_peak_rss_mb=worker_peak_rss_mb,
        digest="+".join(digest(result) for result in results.values()),
        counts=sim_counts(results),
        checks=checks,
        layer=layer,
    )


def undisturbed(reps: List[Rep]) -> List[Rep]:
    """The repetitions the hypervisor left alone, if there are enough of them.

    Steal arrives in bursts, so most repetitions of a measurement see none and
    the correction in :mod:`bench.hostspeed` is exact for them; it is only an
    estimate for the others, which are used when too few ran undisturbed.
    """
    quiet = [rep for rep in reps if rep.run.stolen_frac <= MAX_STOLEN_FRAC]
    return quiet if len(quiet) >= MIN_REPS else reps


def measure(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> Dict[str, Any]:
    """Repeat the workload for about ``seconds`` and summarise it.

    Returns the driver's result object (``correct`` / ``attempted`` /
    ``failed`` / ``metrics``) plus a ``detail`` record for ``bench run``.
    """
    workload = WORKLOADS[name]
    tracer = Tracer() if trace else None
    plain: List[Rep] = []
    traced: List[Rep] = []
    begin = time.perf_counter()
    while True:
        plain.append(run_once(workload, seed, scale))
        if tracer is not None:
            with tracer.installed():
                traced.append(run_once(workload, seed, scale, tracer))
        elapsed = time.perf_counter() - begin
        if len(plain) >= MIN_REPS and elapsed + elapsed / len(plain) > seconds:
            break

    reps = plain + traced
    checks = [check for rep in reps for check in rep.checks]
    checks.append(("every repetition yields one digest", len({rep.digest for rep in reps}) == 1))
    if workload.same_as is not None:
        reference = run_once(WORKLOADS[workload.same_as], seed, scale)
        checks.append((f"digest equals {workload.same_as}", reference.digest == plain[0].digest))
    failures = [label for label, ok in checks if not ok]
    for label in failures:
        print(f"bench: {name}: FAILED check: {label}", file=sys.stderr)

    def median(value: Callable[[Rep], float], of: List[Rep]) -> float:
        return statistics.median(value(rep) for rep in of)

    timed = undisturbed(plain)
    if tracer is None:
        values = {
            "run_s": median(lambda rep: rep.run.quiet_wall_s, timed),
            "setup_s": median(lambda rep: rep.setup.quiet_wall_s, timed),
            "cpu_s": median(lambda rep: rep.run.quiet_cpu_s, timed),
            "peak_rss_mb": plain[0].peak_rss_mb,
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit, _, _ in END_TO_END}
    else:
        timed_traced = undisturbed(traced)
        values = {
            key: median(lambda rep: rep.layer.get(key, 0.0), timed_traced)
            for key, _, _ in layer_metric_specs()
        }
        values["trace_overhead"] = median(lambda rep: rep.run.quiet_wall_s, timed_traced) / median(
            lambda rep: rep.run.quiet_wall_s, timed
        )
        # What the end-to-end times were made from, over the same repetitions.
        values["host.raw_run_s"] = median(lambda rep: rep.run.wall_s, timed)
        values["host.raw_setup_s"] = median(lambda rep: rep.setup.wall_s, timed)
        values["host.raw_cpu_s"] = median(lambda rep: rep.run.cpu_s, timed)
        values["host.slowdown"] = median(lambda rep: rep.run.slowdown, timed)
        values["host.stolen_frac"] = median(lambda rep: rep.run.stolen_frac, plain)
        values["sim.shard.worker_peak_rss_mb"] = plain[0].worker_peak_rss_mb
        metrics = {key: {"value": values[key], "unit": unit} for key, unit, _ in layer_metric_specs()}
    return {
        "correct": not failures,
        "attempted": len(checks),
        "failed": len(failures),
        "metrics": metrics,
        "detail": {
            "workload": name,
            "seed": seed,
            "scale": scale,
            "reps": len(plain),
            "undisturbed_reps": len(timed),
            "raw_run_s": median(lambda rep: rep.run.wall_s, timed),
            "raw_setup_s": median(lambda rep: rep.setup.wall_s, timed),
            "raw_cpu_s": median(lambda rep: rep.run.cpu_s, timed),
            "slowdown": median(lambda rep: rep.run.slowdown, timed),
            "stolen_frac": median(lambda rep: rep.run.stolen_frac, plain),
            "peak_rss_worker_mb": plain[0].worker_peak_rss_mb,
            "digest": plain[0].digest,
            "failed_checks": failures,
            **plain[0].counts,
        },
    }

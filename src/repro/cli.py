"""Command-line interface for the reproduction.

Installed as the ``repro-sim`` console script::

    repro-sim table2                      # print Table II from the calibration data
    repro-sim table3                      # print Table III (decision overhead)
    repro-sim fig1 --devices pixel2       # Fig. 1 schedule energies
    repro-sim fig2 --apps tiktok          # Fig. 2 FPS summary
    repro-sim simulate --policy online --v 4000 --slots 3600
    repro-sim compare --slots 3600        # all four schemes on one workload
    repro-sim sweep --v-values 0 10000 40000 100000
    repro-sim sweep --jobs 4 --cache-dir .repro-cache   # parallel + cached
    repro-sim lint src                    # determinism/concurrency lint pass

Every subcommand prints plain-text tables (and optional ASCII charts) so the
tool works in the offline environments the library targets.  On the
simulation subcommands, ``--shards N`` partitions the population across
worker processes (the sharded fleet engine of :mod:`repro.sim.shard` —
bitwise-identical results for any shard count), ``--trace-level summary``
bounds telemetry memory for megafleet populations, and ``--profile`` reports
where the wall-clock went (training vs policy vs evaluation vs slot
mechanics)::

    repro-sim scenario run megafleet-100k --shards 4 --trace-level summary
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.experiments import (
    fig1_power_schedules,
    fig2_fps_traces,
    table2_rows,
    table3_overhead_rows,
)
from repro.analysis.plotting import ascii_multi_plot
from repro.analysis.reporting import format_table
from repro.core.offline import OfflinePolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import ImmediatePolicy, SchedulingPolicy, SyncPolicy
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationResult, build_engine

__all__ = ["main", "build_parser"]


def _build_policy(args: argparse.Namespace) -> SchedulingPolicy:
    name = args.policy
    if name == "immediate":
        return ImmediatePolicy()
    if name == "sync":
        return SyncPolicy()
    if name == "offline":
        return OfflinePolicy(staleness_bound=args.offline_bound, window_slots=args.window)
    if name == "online":
        return OnlinePolicy(v=args.v, staleness_bound=args.staleness_bound)
    raise ValueError(f"unknown policy {name!r}")


def _config_kwargs(args: argparse.Namespace) -> dict:
    """The SimulationConfig overrides every simulation subcommand shares."""
    return {
        "num_users": args.users,
        "total_slots": args.slots,
        "app_arrival_prob": args.arrival_prob,
        "seed": args.seed,
        "eval_interval_slots": max(args.slots // 20, 60),
    }


def _build_config(args: argparse.Namespace) -> SimulationConfig:
    return SimulationConfig(**_config_kwargs(args))


def _carbon_accountant(args: argparse.Namespace):
    """Build the optional CO2 accountant from ``--carbon-intensity``.

    Accepts a :data:`repro.energy.carbon.GRID_INTENSITIES` region name or a
    numeric grid intensity in gCO2e/kWh; returns ``None`` when the knob is
    unset (carbon reporting stays off by default).
    """
    raw = getattr(args, "carbon_intensity", None)
    if raw is None:
        return None
    from repro.energy.carbon import CarbonAccountant, CarbonIntensity, GRID_INTENSITIES

    try:
        grams_per_kwh = float(raw)
    except ValueError:
        if raw not in GRID_INTENSITIES:
            raise SystemExit(
                f"unknown carbon intensity {raw!r}; pass gCO2e/kWh or one of "
                f"{sorted(GRID_INTENSITIES)}"
            )
        return CarbonAccountant(raw)
    if grams_per_kwh < 0:
        raise SystemExit("carbon intensity must be non-negative (gCO2e/kWh)")
    return CarbonAccountant(CarbonIntensity("custom", grams_per_kwh))


def _result_row(
    name: str,
    result: SimulationResult,
    baseline: Optional[SimulationResult],
    carbon=None,
) -> List:
    saving = None
    if baseline is not None and baseline.total_energy_j() > 0:
        saving = 100.0 * (1.0 - result.total_energy_j() / baseline.total_energy_j())
    row = [
        name,
        result.total_energy_kj(),
        saving,
        result.num_updates,
        result.final_accuracy(),
        result.mean_queue_length(),
        result.mean_virtual_queue_length(),
    ]
    if carbon is not None:
        row.append(carbon.grams_co2_from_result(result))
    return row


_RESULT_HEADERS = [
    "scheme", "energy (kJ)", "saving vs immediate %", "updates",
    "final accuracy", "mean Q(t)", "mean H(t)",
]


def _result_headers(carbon=None) -> List[str]:
    if carbon is None:
        return list(_RESULT_HEADERS)
    return [*_RESULT_HEADERS, "CO2 (g)"]


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_table2(args: argparse.Namespace) -> int:
    print(format_table(
        ["device", "app", "P_app (W)", "P_corun (W)", "time (s)",
         "saving % (derived)", "saving % (paper)"],
        table2_rows(),
        float_format=".2f",
        title="Table II — averaged energy measurements",
    ))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    print(format_table(
        ["device", "Power(idle) W", "Power(comp.) W", "Overhead %"],
        table3_overhead_rows(),
        float_format=".3f",
        title="Table III — energy overhead of online optimization",
    ))
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    rows = fig1_power_schedules(devices=tuple(args.devices), seed=args.seed, source=args.source)
    print(format_table(
        ["device", "app", "training separate (J)", "app separate (J)",
         "co-running (J)", "saving %"],
        rows,
        float_format=".1f",
        title="Fig. 1 — power consumption of different schedules",
    ))
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    results = fig2_fps_traces(apps=tuple(args.apps), duration_s=args.duration, seed=args.seed)
    rows = [
        [app, entry["mean_fps_alone"], entry["mean_fps_corunning"],
         100.0 * entry["relative_degradation"]]
        for app, entry in results.items()
    ]
    print(format_table(
        ["app", "mean FPS alone", "mean FPS co-running", "degradation %"],
        rows,
        float_format=".2f",
        title="Fig. 2 — FPS impact of co-running the training task",
    ))
    return 0


def _switches(args: argparse.Namespace) -> dict:
    """The execution-mode switches every engine- or spec-building command shares."""
    return dict(
        fast_forward=not args.no_fast_forward,
        shards=args.shards,
        trace_level=args.trace_level,
    )


def _build_engine(args: argparse.Namespace, config: SimulationConfig, policy):
    """The engine the command-line switches describe."""
    return build_engine(config, policy, profile=args.profile, **_switches(args))


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _build_config(args)
    carbon = _carbon_accountant(args)
    result = _build_engine(args, config, _build_policy(args)).run()
    print(format_table(_result_headers(carbon),
                       [_result_row(args.policy, result, None, carbon)],
                       float_format=".3f", title="Simulation summary"))
    if args.profile and result.timers is not None:
        print()
        print(result.timers.report())
    if args.plot:
        print()
        print(ascii_multi_plot(
            {"accuracy": (result.accuracy.times(), result.accuracy.accuracies())},
            title="test accuracy vs time (s)",
            x_label="time (s)",
        ))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _build_config(args)
    policies = {
        "immediate": ImmediatePolicy(),
        "sync": SyncPolicy(),
        "offline": OfflinePolicy(staleness_bound=args.offline_bound, window_slots=args.window),
        "online": OnlinePolicy(v=args.v, staleness_bound=args.staleness_bound),
    }
    results = {}
    for name, policy in policies.items():
        print(f"running {name} ...", file=sys.stderr)
        results[name] = _build_engine(args, config, policy).run()
    baseline = results["immediate"]
    carbon = _carbon_accountant(args)
    rows = [
        _result_row(name, result, baseline, carbon) for name, result in results.items()
    ]
    print(format_table(_result_headers(carbon), rows, float_format=".3f",
                       title="Policy comparison (identical fleet, arrivals and data)"))
    if args.profile:
        for name, result in results.items():
            if result.timers is not None:
                print(f"\n[{name}] {result.timers.report()}")
    if args.plot:
        print()
        print(ascii_multi_plot(
            {name: (r.accuracy.times(), r.accuracy.accuracies()) for name, r in results.items()},
            title="convergence comparison (Fig. 5b)",
            x_label="time (s)",
        ))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.runner import ExperimentSuite, RunSpec, annotate_carbon, sweep_grid

    carbon = _carbon_accountant(args)
    config_kwargs = _config_kwargs(args)
    baseline_spec = RunSpec(
        policy="immediate", config=dict(config_kwargs), label="immediate",
        **_switches(args),
    )
    online_specs = sweep_grid(
        v_values=args.v_values,
        seeds=(args.seed,),
        staleness_bound=args.staleness_bound,
        base_config=config_kwargs,
        **_switches(args),
    )
    suite = ExperimentSuite(
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        metrics_store=getattr(args, "metrics_store", None),
    )
    summaries = suite.run([baseline_spec, *online_specs])
    immediate, online = summaries[0], summaries[1:]
    cached = sum(1 for s in summaries if s.from_cache)
    if cached:
        print(f"{cached}/{len(summaries)} runs served from cache", file=sys.stderr)
    if args.profile:
        for summary in summaries:
            if summary.timing_shares:
                shares = "  ".join(
                    f"{name}={100.0 * value:.0f}%"
                    for name, value in summary.timing_shares.items()
                )
                print(f"profile {summary.label}: {shares}", file=sys.stderr)
    if carbon is not None:
        annotate_carbon(summaries, carbon.intensity)
    rows = [
        [
            v,
            summary.energy_kj,
            100.0 * (1.0 - summary.energy_j / immediate.energy_j),
            summary.mean_queue_length,
            summary.mean_virtual_queue_length,
        ]
        + ([summary.carbon_g] if carbon is not None else [])
        for v, summary in zip(args.v_values, online)
    ]
    headers = ["V", "energy (kJ)", "saving vs immediate %", "mean Q(t)", "mean H(t)"]
    if carbon is not None:
        headers.append("CO2 (g)")
    print(format_table(
        headers,
        rows,
        float_format=".2f",
        title=f"V sweep (Lb={args.staleness_bound:.0f}); immediate = "
              f"{immediate.energy_kj:.1f} kJ",
    ))
    return 0


# ---------------------------------------------------------------------------
# Scenario subcommands
# ---------------------------------------------------------------------------


def _load_scenario(args: argparse.Namespace):
    """Resolve the scenario named on the command line (registry or file)."""
    from repro.scenarios import get_scenario, load_scenario_file

    if getattr(args, "spec_file", None):
        spec = load_scenario_file(args.spec_file)
        if getattr(args, "name", None) and args.name != spec.name:
            raise SystemExit(
                f"--spec-file defines scenario {spec.name!r}, not {args.name!r}"
            )
        return spec
    if not getattr(args, "name", None):
        raise SystemExit("name a registry scenario or pass --spec-file")
    try:
        return get_scenario(args.name)
    except KeyError as error:
        raise SystemExit(str(error))


def _scenario_runner(args: argparse.Namespace):
    from repro.scenarios import ScenarioRunner

    return ScenarioRunner(
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        metrics_store=getattr(args, "metrics_store", None),
        **_switches(args),
    )


def _cmd_scenario_list(args: argparse.Namespace) -> int:
    from repro.scenarios import list_scenarios

    rows = [
        [
            spec.name,
            spec.num_users,
            spec.total_slots,
            len(spec.cohorts),
            spec.spec_hash(),
            ",".join(spec.tags),
        ]
        for spec in list_scenarios()
    ]
    print(format_table(
        ["scenario", "users", "slots", "cohorts", "spec hash", "tags"],
        rows,
        title="Scenario registry",
    ))
    return 0


def _cmd_scenario_show(args: argparse.Namespace) -> int:
    from repro.scenarios import compile_scenario

    spec = _load_scenario(args)
    compiled = compile_scenario(spec)
    print(f"{spec.name} — {spec.description}")
    print(f"users={spec.num_users} slots={spec.total_slots} seed={spec.seed} "
          f"spec_hash={spec.spec_hash()}")
    if spec.base:
        print(f"base overrides: {spec.base}")
    rows = []
    for cohort, size in zip(spec.cohorts, compiled.sizes):
        rows.append([
            cohort.name,
            size,
            "default" if cohort.device_mix is None else str(cohort.device_mix),
            "default" if cohort.arrival is None else cohort.arrival.get("kind"),
            "default" if cohort.wifi_fraction is None else f"{cohort.wifi_fraction:g}",
            "none" if cohort.battery is None else str(cohort.battery),
            "none" if cohort.data_alpha is None else f"{cohort.data_alpha:g}",
        ])
    print(format_table(
        ["cohort", "users", "devices", "arrival", "wifi", "battery", "data skew"],
        rows,
        title="Cohorts",
    ))
    counts = compiled.device_counts()
    if counts is not None:
        print(f"pinned devices: {counts}")
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    from repro.analysis.runner import annotate_carbon

    spec = _load_scenario(args)
    carbon = _carbon_accountant(args)
    runner = _scenario_runner(args)
    policy_kwargs = (
        {"v": args.v, "staleness_bound": args.staleness_bound}
        if args.policy == "online"
        else {}
    )
    summaries = runner.run(
        [spec], policy=args.policy, policy_kwargs=policy_kwargs, refresh=args.refresh
    )
    if carbon is not None:
        annotate_carbon(summaries, carbon.intensity)
    summary = summaries[0]
    if summary.from_cache:
        print("served from cache", file=sys.stderr)
    headers = [
        "scenario", "policy", "energy (kJ)", "updates", "final accuracy",
        "mean Q(t)", "battery SoC", "wall (s)",
    ]
    row = [
        spec.name, args.policy, summary.energy_kj, summary.num_updates,
        summary.final_accuracy, summary.mean_queue_length,
        summary.mean_final_battery_soc, summary.wall_time_s,
    ]
    if carbon is not None:
        headers.append("CO2 (g)")
        row.append(summary.carbon_g)
    print(format_table(headers, [row], float_format=".3f",
                       title=f"Scenario run (spec hash {spec.spec_hash()})"))
    if args.profile and summary.timing_shares:
        shares = "  ".join(
            f"{name}={100.0 * value:.0f}%"
            for name, value in summary.timing_shares.items()
        )
        print(f"profile: {shares}", file=sys.stderr)
    return 0


def _cmd_scenario_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.runner import annotate_carbon

    spec = _load_scenario(args)
    carbon = _carbon_accountant(args)
    runner = _scenario_runner(args)
    if args.v_values:
        summaries = runner.sweep_v(
            spec, v_values=args.v_values, staleness_bound=args.staleness_bound,
            refresh=args.refresh,
        )
        labels = [f"V={v:g}" for v in args.v_values]
        title = f"Online V sweep on {spec.name} (Lb={args.staleness_bound:.0f})"
    else:
        policies = args.policies
        summaries = runner.sweep_policies(
            spec,
            policies=policies,
            online_kwargs={"v": args.v, "staleness_bound": args.staleness_bound},
            refresh=args.refresh,
        )
        labels = list(policies)
        title = f"Policy comparison on {spec.name}"
    if carbon is not None:
        annotate_carbon(summaries, carbon.intensity)
    cached = sum(1 for s in summaries if s.from_cache)
    if cached:
        print(f"{cached}/{len(summaries)} runs served from cache", file=sys.stderr)
    baseline_j = summaries[0].energy_j
    headers = ["run", "energy (kJ)", "saving vs first %", "updates", "final accuracy"]
    if carbon is not None:
        headers.append("CO2 (g)")
    rows = []
    for label, summary in zip(labels, summaries):
        saving = 100.0 * (1.0 - summary.energy_j / baseline_j) if baseline_j > 0 else 0.0
        row = [label, summary.energy_kj, saving, summary.num_updates,
               summary.final_accuracy]
        if carbon is not None:
            row.append(summary.carbon_g)
        rows.append(row)
    print(format_table(headers, rows, float_format=".3f", title=title))
    return 0


# ---------------------------------------------------------------------------
# Service subcommands
# ---------------------------------------------------------------------------


def _build_service(args: argparse.Namespace):
    from repro.service import ExperimentService

    every = getattr(args, "checkpoint_every", None)
    if every is not None and every <= 0:
        every = None
    retry = None
    max_retries = getattr(args, "max_retries", 0)
    if max_retries and max_retries > 0:
        from repro.faults import RetryPolicy

        retry = RetryPolicy(max_attempts=max_retries, base_delay_s=0.5, cap_s=30.0)
    fault_plan = None
    plan_path = getattr(args, "fault_plan", None)
    if plan_path:
        import json as _json

        from repro.faults import FaultPlan

        fault_plan = FaultPlan.from_dict(_json.loads(Path(plan_path).read_text()))
    keep_every = getattr(args, "keep_every", None)
    if keep_every is not None and keep_every <= 0:
        keep_every = None
    return ExperimentService(
        args.root,
        workers=getattr(args, "workers", 1),
        checkpoint_every=every,
        retry=retry,
        fault_plan=fault_plan,
        keep_last=getattr(args, "keep_last", 1),
        keep_every_slots=keep_every,
        metrics_store=getattr(args, "metrics_store", None),
    )


def _service_client(args: argparse.Namespace):
    from repro.service import ServiceClient

    return ServiceClient(args.url)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceAPI

    service = _build_service(args)
    recovered = service.recover()
    if recovered:
        print(f"recovered {len(recovered)} interrupted job(s): "
              f"{' '.join(recovered)}", file=sys.stderr)
    if service.fault_plan is not None:
        print(f"fault injection armed: {len(service.fault_plan.events)} "
              f"event(s) (seed {service.fault_plan.seed})", file=sys.stderr)
    api = ServiceAPI(service, host=args.host, port=args.port)
    print(f"serving on http://{args.host}:{args.port} "
          f"(state: {service.root})", file=sys.stderr)
    api.serve_forever()
    return 0


def _job_rows(records) -> List[List]:
    rows = []
    for record in records:
        telemetry = record.telemetry or {}
        rows.append([
            record.id,
            record.spec.display_name(),
            record.state,
            f"{record.slot}/{record.total_slots}",
            telemetry.get("energy_j"),
            telemetry.get("accuracy"),
        ])
    return rows


_JOB_HEADERS = ["job", "spec", "state", "slot", "energy (J)", "accuracy"]


def _payload_rows(payloads) -> List[List]:
    """`_job_rows` for the HTTP API's JSON job payloads."""
    rows = []
    for payload in payloads:
        telemetry = payload.get("telemetry") or {}
        rows.append([
            payload.get("id"),
            payload.get("display_name"),
            payload.get("state"),
            f"{payload.get('slot')}/{payload.get('total_slots')}",
            telemetry.get("energy_j"),
            telemetry.get("accuracy"),
        ])
    return rows


def _cmd_jobs_list(args: argparse.Namespace) -> int:
    if args.url:
        payloads = _service_client(args).list_jobs()
        if not payloads:
            print(f"no jobs at {args.url}")
            return 0
        print(format_table(_JOB_HEADERS, _payload_rows(payloads),
                           float_format=".3f", title=f"Jobs ({args.url})"))
        return 0
    service = _build_service(args)
    records = service.list_jobs()
    if not records:
        print(f"no jobs under {service.jobs_dir}")
        return 0
    print(format_table(_JOB_HEADERS, _job_rows(records), float_format=".3f",
                       title=f"Jobs ({service.jobs_dir})"))
    return 0


def _cmd_jobs_status(args: argparse.Namespace) -> int:
    import json as _json

    if args.url:
        from repro.service import ServiceError

        try:
            payload = _service_client(args).get_job(args.job_id)
        except ServiceError as error:
            raise SystemExit(str(error))
        print(format_table(_JOB_HEADERS, _payload_rows([payload]),
                           float_format=".3f"))
        if payload.get("error"):
            print(f"\nerror:\n{payload['error']}")
        if payload.get("result") is not None:
            print("\nresult:")
            print(_json.dumps(payload["result"], indent=2))
        return 0
    service = _build_service(args)
    try:
        record = service.get(args.job_id)
    except KeyError as error:
        raise SystemExit(str(error))
    print(format_table(_JOB_HEADERS, _job_rows([record]), float_format=".3f"))
    if record.error:
        print(f"\nerror:\n{record.error}")
    if record.state == "done":
        result = service.result(record.id)
        if result is not None:
            print("\nresult:")
            print(_json.dumps(result, indent=2))
    return 0


def _cmd_jobs_telemetry(args: argparse.Namespace) -> int:
    import json as _json

    if args.url:
        from repro.service import ServiceError

        try:
            payload = _service_client(args).telemetry(args.job_id)
        except ServiceError as error:
            raise SystemExit(str(error))
    else:
        service = _build_service(args)
        try:
            payload = service.telemetry(args.job_id)
        except KeyError as error:
            raise SystemExit(str(error))
    print(_json.dumps(payload, indent=2, default=str))
    return 0


def _cmd_jobs_submit(args: argparse.Namespace) -> int:
    from repro.scenarios.runner import scenario_run_spec

    spec = scenario_run_spec(
        args.scenario,
        policy=args.policy,
        policy_kwargs=(
            {"v": args.v, "staleness_bound": args.staleness_bound}
            if args.policy == "online"
            else None
        ),
        **_switches(args),
    )
    service = _build_service(args)
    if args.run:
        record = service.submit(spec)
        record = service.run_job(record.id)
    else:
        # Register without starting a worker: the serving process (or a
        # later `jobs resume`) picks it up.
        record = service.submit(spec, enqueue=False)
    print(format_table(_JOB_HEADERS, _job_rows([record]), float_format=".3f"))
    if record.state == "failed" and record.error:
        print(f"\nerror:\n{record.error}")
        return 1
    return 0


def _cmd_jobs_resume(args: argparse.Namespace) -> int:
    service = _build_service(args)
    try:
        record = service.resume(args.job_id, sync=True)
    except KeyError as error:
        raise SystemExit(str(error))
    print(format_table(_JOB_HEADERS, _job_rows([record]), float_format=".3f"))
    if record.state == "failed" and record.error:
        print(f"\nerror:\n{record.error}")
        return 1
    return 0


def _cmd_jobs_cancel(args: argparse.Namespace) -> int:
    service = _build_service(args)
    try:
        record = service.cancel(args.job_id)
    except KeyError as error:
        raise SystemExit(str(error))
    if record.state == "running":
        print(f"{record.id}: owned by the serving process; cancel it over "
              f"HTTP (POST /jobs/{record.id}/cancel) so the owner "
              f"checkpoints at the next slot boundary", file=sys.stderr)
        return 1
    print(f"{record.id}: {record.state}")
    return 0


def _format_frame(frame: dict) -> str:
    """One watch line per telemetry frame."""
    slot = frame.get("slot", 0)
    total = frame.get("total_slots") or 0
    pct = f" ({100.0 * slot / total:.0f}%)" if total else ""
    parts = [f"slot {slot}/{total}{pct}"]
    energy = frame.get("energy_j")
    if energy is not None:
        parts.append(f"energy={float(energy) / 1000.0:.3f}kJ")
    if frame.get("num_updates") is not None:
        parts.append(f"updates={frame['num_updates']}")
    if frame.get("accuracy") is not None:
        parts.append(f"acc={float(frame['accuracy']):.4f}")
    if frame.get("queue_length") is not None:
        parts.append(f"Q={float(frame['queue_length']):.2f}")
    if frame.get("virtual_queue_length") is not None:
        parts.append(f"H={float(frame['virtual_queue_length']):.2f}")
    if frame.get("final"):
        parts.append("[final]")
    return "  ".join(parts)


def _cmd_jobs_watch(args: argparse.Namespace) -> int:
    """Follow a job's live telemetry stream until it reaches a terminal state.

    Rides the chunked ``/jobs/<id>/telemetry/stream`` endpoint; server-side
    watch timeouts and dropped connections reconnect from the last seen
    ``seq``, so the printed stream never duplicates or skips a frame.
    """
    import time as _time

    from repro.service import ServiceError, ServiceUnavailable

    client = _service_client(args)
    last_seq = -1
    failures = 0
    while True:
        try:
            for frame in client.stream_telemetry(
                args.job_id, after=last_seq, timeout_s=args.timeout
            ):
                event = frame.get("event")
                if event == "end":
                    state = frame.get("state")
                    print(f"-- {state} --")
                    return 0 if state in ("done", "checkpointed") else 1
                if event == "timeout":
                    break  # reconnect from last_seq below
                if "seq" in frame:
                    last_seq = int(frame["seq"])
                    failures = 0
                print(_format_frame(frame), flush=True)
        except ServiceError as error:
            raise SystemExit(str(error))
        except ServiceUnavailable as error:
            failures += 1
            if failures >= args.max_reconnects:
                raise SystemExit(
                    f"stream lost after {failures} reconnect attempt(s): {error}"
                )
            _time.sleep(min(0.5 * failures, 3.0))  # reprolint: allow(wall-clock): CLI reconnect pacing, never feeds sim state


# ---------------------------------------------------------------------------
# Metrics subcommands
# ---------------------------------------------------------------------------


def _open_store(args: argparse.Namespace, required: bool = True):
    path = getattr(args, "store", None)
    if path is None:
        if required:
            raise SystemExit("pass --store <sqlite file>")
        return None
    from repro.metrics.store import MetricsStore

    return MetricsStore(path)


def _cmd_metrics_runs(args: argparse.Namespace) -> int:
    store = _open_store(args)
    rows = store.runs(scenario=args.scenario, policy=args.policy)
    if not rows:
        print("no matching runs in the store")
        return 0
    table = [
        [
            row["spec_hash"][:12],
            row.get("scenario") or row.get("label") or "",
            row.get("policy"),
            row.get("seed"),
            row.get("shards"),
            row.get("repro_version"),
            row.get("energy_kj"),
            row.get("final_accuracy"),
            row.get("num_updates"),
            row.get("wall_time_s"),
        ]
        for row in rows
    ]
    print(format_table(
        ["spec", "scenario", "policy", "seed", "shards",
         "version", "energy (kJ)", "accuracy", "updates", "wall (s)"],
        table,
        float_format=".3f",
        title=f"Ingested runs ({args.store})",
    ))
    return 0


def _cmd_metrics_ingest(args: argparse.Namespace) -> int:
    """Backfill a store from an ExperimentSuite cache directory."""
    from repro.analysis.runner import RunSummary

    store = _open_store(args)
    ingested = skipped = 0
    for path in sorted(Path(args.cache_dir).glob("*.json")):
        try:
            summary = RunSummary.from_json(path.read_text())
        except (ValueError, TypeError, KeyError):
            skipped += 1
            continue
        store.ingest_run(summary)
        ingested += 1
    print(f"ingested {ingested} summaries ({skipped} unreadable) "
          f"from {args.cache_dir} into {args.store}")
    return 0


def _cmd_metrics_regress(args: argparse.Namespace) -> int:
    from repro.metrics.regress import (
        detect_bench_regressions,
        detect_store_regressions,
        format_regressions,
        parse_tolerance_overrides,
    )

    tolerances = None
    if args.tolerance:
        try:
            tolerances = parse_tolerance_overrides(args.tolerance)
        except ValueError as error:
            raise SystemExit(str(error))
    findings = []
    if args.artifacts and Path(args.artifacts).is_dir():
        bench_findings, stats = detect_bench_regressions(
            args.artifacts, tolerances=tolerances
        )
        findings.extend(bench_findings)
        print(f"bench: {stats['files']} file(s), {stats['groups']} "
              f"group(s) with history, {stats['checks']} check(s)")
    elif args.artifacts:
        print(f"bench: no artifact directory at {args.artifacts}")
    store = _open_store(args, required=False)
    if store is not None:
        store_findings, stats = detect_store_regressions(
            store, tolerances=tolerances
        )
        findings.extend(store_findings)
        print(f"store: {stats['groups']} group(s) with history, "
              f"{stats['checks']} check(s)")
    print(format_regressions(findings))
    return 1 if findings else 0


def _cmd_metrics_dashboard(args: argparse.Namespace) -> int:
    from repro.metrics.dashboard import write_dashboard

    store = _open_store(args, required=False)
    artifacts = args.artifacts if args.artifacts else None
    out = write_dashboard(
        args.out,
        store=store,
        artifact_dir=artifacts,
        title=args.title,
        baseline_policy=args.baseline_policy,
    )
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# Static analysis
# ---------------------------------------------------------------------------


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run reprolint (the determinism/concurrency lint pass) over ``paths``.

    Delegates to :mod:`repro.tools.reprolint.cli` so ``repro-sim lint`` and
    ``python -m repro.tools.reprolint`` share one implementation, one exit
    convention (0 clean, 1 findings, 2 usage error) and one config loader.
    """
    from repro.tools.reprolint.cli import run as reprolint_run

    argv: List[str] = list(args.paths)
    argv += ["--format", args.format]
    for rule in args.rule or []:
        argv += ["--rule", rule]
    if args.list_rules:
        argv.append("--list-rules")
    if args.no_config:
        argv.append("--no-config")
    return reprolint_run(argv)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_sim_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--users", type=int, default=25)
    parser.add_argument("--slots", type=int, default=3600)
    parser.add_argument("--arrival-prob", type=float, default=0.003)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--v", type=float, default=4000.0)
    parser.add_argument("--staleness-bound", type=float, default=500.0)
    parser.add_argument("--offline-bound", type=float, default=1000.0)
    parser.add_argument("--window", type=int, default=500)
    parser.add_argument("--no-fast-forward", action="store_true",
                        help="disable the engine's event-horizon "
                             "fast-forward (results are identical either way; "
                             "this only trades speed for a per-slot execution)")
    parser.add_argument("--shards", type=int, default=1,
                        help="partition the population across this many "
                             "worker processes (the sharded engine); "
                             "any shard count gives bitwise-identical "
                             "results")
    parser.add_argument("--trace-level", choices=["full", "summary", "off"],
                        default="full",
                        help="telemetry volume: 'summary' keeps streamed "
                             "aggregates only (the megafleet setting — "
                             "identical headline numbers, memory-bounded "
                             "telemetry), 'off' drops per-update samples too")
    parser.add_argument("--profile", action="store_true",
                        help="print per-subsystem wall-clock shares "
                             "(training / policy / eval / slot loop) and, "
                             "per shard, the fleet plane's event counts")
    parser.add_argument("--carbon-intensity", default=None,
                        help="report CO2-equivalent grams alongside energy: a "
                             "grid region (world_average, us_average, "
                             "eu_average, coal_heavy, hydro) or gCO2e/kWh; "
                             "off by default")
    parser.add_argument("--plot", action="store_true", help="print ASCII accuracy curves")


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Energy-aware federated asynchronous learning (ICDCS 2022 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table2 = subparsers.add_parser("table2", help="print Table II")
    table2.set_defaults(func=_cmd_table2)

    table3 = subparsers.add_parser("table3", help="print Table III")
    table3.set_defaults(func=_cmd_table3)

    fig1 = subparsers.add_parser("fig1", help="Fig. 1 schedule energies")
    fig1.add_argument("--devices", nargs="+", default=["pixel2", "hikey970"])
    fig1.add_argument("--source", choices=["table", "analytical"], default="table")
    fig1.add_argument("--seed", type=int, default=0)
    fig1.set_defaults(func=_cmd_fig1)

    fig2 = subparsers.add_parser("fig2", help="Fig. 2 FPS impact")
    fig2.add_argument("--apps", nargs="+", default=["angrybird", "tiktok"])
    fig2.add_argument("--duration", type=int, default=250)
    fig2.add_argument("--seed", type=int, default=0)
    fig2.set_defaults(func=_cmd_fig2)

    simulate = subparsers.add_parser("simulate", help="run one scheduling policy")
    simulate.add_argument("--policy", choices=["immediate", "sync", "offline", "online"],
                          default="online")
    _add_sim_arguments(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    compare = subparsers.add_parser("compare", help="run all four schemes")
    _add_sim_arguments(compare)
    compare.set_defaults(func=_cmd_compare)

    sweep = subparsers.add_parser("sweep", help="sweep the control knob V")
    _add_sim_arguments(sweep)
    sweep.add_argument("--v-values", type=float, nargs="+",
                       default=[0.0, 1e4, 4e4, 1e5])
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the sweep grid "
                            "(0 = one per CPU core)")
    sweep.add_argument("--cache-dir", default=None,
                       help="cache run summaries here, keyed by config hash; "
                            "repeated sweeps skip finished runs")
    sweep.add_argument("--metrics-store", default=None, metavar="DB",
                       help="also ingest every run summary into this sqlite "
                            "metrics store (see `repro-sim metrics`)")
    sweep.set_defaults(func=_cmd_sweep)

    scenario = subparsers.add_parser(
        "scenario",
        help="declarative heterogeneous-fleet scenarios (see docs/scenarios.md)",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)

    sc_list = scenario_sub.add_parser("list", help="list registered scenarios")
    sc_list.set_defaults(func=_cmd_scenario_list)

    def _add_scenario_target(sub: argparse.ArgumentParser):
        sub.add_argument("name", nargs="?", default=None,
                         help="registry scenario name")
        sub.add_argument("--spec-file", default=None,
                         help="load the scenario from a .json/.toml spec file "
                              "instead of the registry")

    def _add_scenario_exec(sub: argparse.ArgumentParser):
        sub.add_argument("--policy", choices=["immediate", "sync", "offline", "online"],
                         default="online")
        sub.add_argument("--v", type=float, default=4000.0)
        sub.add_argument("--staleness-bound", type=float, default=500.0)
        sub.add_argument("--no-fast-forward", action="store_true")
        sub.add_argument("--shards", type=int, default=1,
                         help="partition each run's population across this "
                              "many worker processes (bitwise-identical "
                              "results for any shard count)")
        sub.add_argument("--trace-level", choices=["full", "summary", "off"],
                         default="full",
                         help="telemetry volume; 'summary' is the megafleet "
                              "setting (memory-bounded, same headline numbers)")
        sub.add_argument("--profile", action="store_true")
        sub.add_argument("--jobs", type=int, default=1,
                         help="worker processes (0 = one per CPU core)")
        sub.add_argument("--cache-dir", default=None,
                         help="cache summaries here, keyed by the compiled "
                              "scenario's content hash")
        sub.add_argument("--refresh", action="store_true",
                         help="ignore (and overwrite) cached summaries")
        sub.add_argument("--carbon-intensity", default=None,
                         help="report CO2-equivalent grams (region or gCO2e/kWh)")
        sub.add_argument("--metrics-store", default=None, metavar="DB",
                         help="also ingest every run summary into this sqlite "
                              "metrics store (see `repro-sim metrics`)")

    sc_show = scenario_sub.add_parser("show", help="cohorts and compiled assignments")
    _add_scenario_target(sc_show)
    sc_show.set_defaults(func=_cmd_scenario_show)

    sc_run = scenario_sub.add_parser("run", help="run one scenario end to end")
    _add_scenario_target(sc_run)
    _add_scenario_exec(sc_run)
    sc_run.set_defaults(func=_cmd_scenario_run)

    sc_sweep = scenario_sub.add_parser(
        "sweep", help="sweep policies (default) or --v-values on one scenario"
    )
    _add_scenario_target(sc_sweep)
    _add_scenario_exec(sc_sweep)
    sc_sweep.add_argument("--v-values", type=float, nargs="+", default=None,
                          help="sweep the online control knob V instead of "
                               "comparing policies")
    sc_sweep.add_argument("--policies", nargs="+",
                          default=["immediate", "sync", "offline", "online"],
                          choices=["immediate", "sync", "offline", "online"])
    sc_sweep.set_defaults(func=_cmd_scenario_sweep)

    def _add_service_root(sub: argparse.ArgumentParser):
        sub.add_argument("--root", default=".repro-service",
                         help="service state directory (job store + checkpoints)")
        sub.add_argument("--metrics-store", default=None, metavar="DB",
                         help="ingest finished runs and telemetry frames into "
                              "this sqlite metrics store "
                              "(see `repro-sim metrics`)")

    serve = subparsers.add_parser(
        "serve",
        help="run the experiment service (HTTP API + worker pool; see "
             "docs/service.md)",
    )
    _add_service_root(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent job worker threads")
    serve.add_argument("--checkpoint-every", type=int, default=200,
                       help="auto-checkpoint interval in slots (0 disables "
                            "the periodic grid; cancel still checkpoints)")
    serve.add_argument("--max-retries", type=int, default=3,
                       help="failed-job retry attempts before quarantine "
                            "(0 disables self-healing retries)")
    serve.add_argument("--keep-last", type=int, default=1,
                       help="checkpoint snapshots retained per job")
    serve.add_argument("--keep-every", type=int, default=0,
                       help="additionally retain snapshots at slots that are "
                            "multiples of this (0 disables milestones)")
    serve.add_argument("--fault-plan", default=None, metavar="FILE",
                       help="JSON FaultPlan to inject (chaos testing; see "
                            "docs/faults.md)")
    serve.set_defaults(func=_cmd_serve)

    jobs = subparsers.add_parser(
        "jobs", help="inspect and drive the experiment service's job store"
    )
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)

    def _add_service_url(sub: argparse.ArgumentParser):
        sub.add_argument("--url", default=None, metavar="URL",
                         help="query a running service over HTTP (with "
                              "timeouts + bounded retry) instead of reading "
                              "the job store directly")

    j_list = jobs_sub.add_parser("list", help="list all jobs")
    _add_service_root(j_list)
    _add_service_url(j_list)
    j_list.set_defaults(func=_cmd_jobs_list)

    j_status = jobs_sub.add_parser("status", help="one job's record and result")
    _add_service_root(j_status)
    _add_service_url(j_status)
    j_status.add_argument("job_id")
    j_status.set_defaults(func=_cmd_jobs_status)

    j_telemetry = jobs_sub.add_parser(
        "telemetry", help="telemetry-so-far: the job's latest compact frame"
    )
    _add_service_root(j_telemetry)
    _add_service_url(j_telemetry)
    j_telemetry.add_argument("job_id")
    j_telemetry.set_defaults(func=_cmd_jobs_telemetry)

    j_watch = jobs_sub.add_parser(
        "watch",
        help="follow a job's live telemetry stream (chunked HTTP) until "
             "it finishes",
    )
    j_watch.add_argument("job_id")
    j_watch.add_argument("--url", required=True, metavar="URL",
                         help="the running service to stream from")
    j_watch.add_argument("--timeout", type=float, default=None,
                         help="server-side watch deadline in seconds per "
                              "connection (the client reconnects seamlessly)")
    j_watch.add_argument("--max-reconnects", type=int, default=5,
                         help="consecutive failed reconnects before giving up")
    j_watch.set_defaults(func=_cmd_jobs_watch)

    j_submit = jobs_sub.add_parser(
        "submit", help="register a registry scenario as a job"
    )
    _add_service_root(j_submit)
    j_submit.add_argument("scenario", help="registry scenario name")
    j_submit.add_argument("--policy",
                          choices=["immediate", "sync", "offline", "online"],
                          default="online")
    j_submit.add_argument("--v", type=float, default=4000.0)
    j_submit.add_argument("--staleness-bound", type=float, default=500.0)
    j_submit.add_argument("--no-fast-forward", action="store_true")
    j_submit.add_argument("--shards", type=int, default=1)
    j_submit.add_argument("--trace-level", choices=["full", "summary", "off"],
                          default="full")
    j_submit.add_argument("--checkpoint-every", type=int, default=200,
                          help="auto-checkpoint interval in slots when --run")
    j_submit.add_argument("--run", action="store_true",
                          help="execute the job on this process before "
                               "returning (otherwise it waits for the "
                               "serving process or `jobs resume`)")
    j_submit.set_defaults(func=_cmd_jobs_submit)

    j_resume = jobs_sub.add_parser(
        "resume",
        help="continue a checkpointed/crashed job on this process "
             "(bitwise-identical to the uninterrupted run)",
    )
    _add_service_root(j_resume)
    j_resume.add_argument("job_id")
    j_resume.add_argument("--checkpoint-every", type=int, default=200)
    j_resume.set_defaults(func=_cmd_jobs_resume)

    j_cancel = jobs_sub.add_parser("cancel", help="stop a queued job")
    _add_service_root(j_cancel)
    j_cancel.add_argument("job_id")
    j_cancel.set_defaults(func=_cmd_jobs_cancel)

    metrics = subparsers.add_parser(
        "metrics",
        help="query the run metrics store, detect regressions, render "
             "dashboards (see docs/analytics.md)",
    )
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)

    m_runs = metrics_sub.add_parser("runs", help="list ingested runs")
    m_runs.add_argument("--store", required=True, metavar="DB",
                        help="sqlite metrics store file")
    m_runs.add_argument("--scenario", default=None, help="filter by scenario")
    m_runs.add_argument("--policy", default=None, help="filter by policy")
    m_runs.set_defaults(func=_cmd_metrics_runs)

    m_ingest = metrics_sub.add_parser(
        "ingest", help="backfill a store from an ExperimentSuite cache dir"
    )
    m_ingest.add_argument("--store", required=True, metavar="DB")
    m_ingest.add_argument("--cache-dir", required=True,
                          help="directory of cached RunSummary JSON files")
    m_ingest.set_defaults(func=_cmd_metrics_ingest)

    m_regress = metrics_sub.add_parser(
        "regress",
        help="detect metric regressions across BENCH trajectories and "
             "store history (nonzero exit on findings)",
    )
    m_regress.add_argument("--artifacts", default="benchmark_artifacts",
                           metavar="DIR",
                           help="BENCH_*.json trajectory directory "
                                "(default: benchmark_artifacts; pass '' to "
                                "skip)")
    m_regress.add_argument("--store", default=None, metavar="DB",
                           help="also compare version-to-version history in "
                                "this metrics store")
    m_regress.add_argument("--tolerance", action="append", default=None,
                           metavar="PATTERN=REL[:ABS[:DIR]]",
                           help="override a metric tolerance (repeatable); "
                                "DIR is high, low or both")
    m_regress.set_defaults(func=_cmd_metrics_regress)

    m_dash = metrics_sub.add_parser(
        "dashboard", help="render the static HTML comparison dashboard"
    )
    m_dash.add_argument("--out", required=True, metavar="FILE",
                        help="output HTML file")
    m_dash.add_argument("--store", default=None, metavar="DB")
    m_dash.add_argument("--artifacts", default="benchmark_artifacts",
                        metavar="DIR",
                        help="BENCH_*.json directory for trajectory "
                             "sparklines (pass '' to skip)")
    m_dash.add_argument("--title", default="repro-sim metrics")
    m_dash.add_argument("--baseline-policy", default="immediate",
                        help="policy the energy pivot's deltas compare "
                             "against")
    m_dash.set_defaults(func=_cmd_metrics_dashboard)

    lint = subparsers.add_parser(
        "lint",
        help="run reprolint, the determinism/concurrency static-analysis "
             "pass (see docs/determinism.md)",
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--format", choices=["text", "json"], default="text",
                      help="finding output format")
    lint.add_argument("--rule", action="append", default=None,
                      help="run only this rule id (repeatable)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    lint.add_argument("--no-config", action="store_true",
                      help="ignore [tool.reprolint] in pyproject.toml")
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console-script entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

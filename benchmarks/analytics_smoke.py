"""Metrics-subsystem end-to-end smoke check (CI gate).

Exercises the whole analytics path the way an operator would, at smoke
scale:

1. **Sweep → store** — two registry scenarios x two policies run through
   :class:`repro.scenarios.ScenarioRunner` with a ``metrics_store``; every
   summary must land as a queryable row keyed by its spec hash.
2. **Live stream → store** — an in-process :class:`repro.service.api
   .ServiceAPI` (port 0) runs one job with periodic checkpoints while
   :meth:`ServiceClient.stream_telemetry` consumes the chunked NDJSON
   stream; frames must arrive with contiguous ``seq`` and strictly
   increasing ``slot``, end on a terminal ``end`` event, and the same
   frames must land in the store's ``series`` table.
3. **Dashboard** — :func:`repro.metrics.dashboard.write_dashboard`
   renders the populated store to a self-contained HTML file.
4. **Regression detector** — ``repro-sim metrics regress`` must exit 0 on
   the repo's real ``benchmark_artifacts`` trajectories and exit 1 on a
   synthetic fixture with a seeded energy regression.

Every run appends a record to ``benchmark_artifacts/BENCH_analytics.json``
(stage wall-clocks, rows/frames ingested) so analytics-path slowdowns are
visible across commits::

    PYTHONPATH=src python benchmarks/analytics_smoke.py --max-seconds 300
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time

from repro.analysis.runner import RunSpec
from repro.cli import main as cli_main
from repro.metrics.bench import append_trajectory, bench_record
from repro.metrics.dashboard import write_dashboard
from repro.metrics.store import MetricsStore
from repro.scenarios import ScenarioRunner, get_scenario
from repro.service.api import serve
from repro.service.client import ServiceClient

ARTIFACT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmark_artifacts",
    "BENCH_analytics.json",
)

ARTIFACT_DIR = os.path.dirname(ARTIFACT_PATH)

SWEEP_SCENARIOS = ("paper-baseline", "diurnal-commuters")
SWEEP_POLICIES = ("immediate", "online")
SMOKE_USERS = 8
SMOKE_SLOTS = 600


def smoke_spec(name: str):
    """A registry scenario shrunk to smoke scale (cohort structure intact)."""
    spec = get_scenario(name)
    base = dict(spec.base)
    base.pop("eval_interval_slots", None)
    base["num_train_samples"] = min(int(base.get("num_train_samples", 2500)), 400)
    base["num_test_samples"] = 150
    base["eval_interval_slots"] = 200
    return spec.scaled(
        num_users=min(spec.num_users, SMOKE_USERS),
        total_slots=min(spec.total_slots, SMOKE_SLOTS),
        base=base,
    )


def stage_sweep(store_path: str, failures: list) -> float:
    """Two scenarios x two policies through the suite into the store."""
    start = time.perf_counter()
    runner = ScenarioRunner(jobs=1, fast_forward=True, metrics_store=store_path)
    specs = [smoke_spec(name) for name in SWEEP_SCENARIOS]
    for policy in SWEEP_POLICIES:
        runner.run(specs, policy=policy)
    elapsed = time.perf_counter() - start
    store = MetricsStore(store_path)
    expected = len(SWEEP_SCENARIOS) * len(SWEEP_POLICIES)
    if store.count_runs() != expected:
        failures.append(
            f"sweep ingested {store.count_runs()} store rows, expected {expected}"
        )
    for policy in SWEEP_POLICIES:
        rows = store.runs(policy=policy)
        if len(rows) != len(SWEEP_SCENARIOS):
            failures.append(
                f"store query policy={policy!r} returned {len(rows)} rows"
            )
        for row in rows:
            if not row.get("energy_j") or row.get("num_updates") is None:
                failures.append(f"store row {row['spec_hash']} missing headline metrics")
    print(f"sweep: {elapsed:6.2f}s  {store.count_runs()} runs ingested  "
          f"scenarios={store.scenarios()}")
    return elapsed


def stage_stream(root: str, store_path: str, failures: list) -> float:
    """One service job consumed live over the chunked telemetry stream."""
    start = time.perf_counter()
    spec = RunSpec(
        policy="online",
        config=dict(
            num_users=3, total_slots=40, app_arrival_prob=0.01, seed=3,
            num_train_samples=120, num_test_samples=60, hidden_dims=(4,),
            eval_interval_slots=20, trace_interval_slots=10,
        ),
    )
    api = serve(root, port=0, workers=1, checkpoint_every=10,
                metrics_store=store_path)
    api.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{api.port}")
        job = client.submit({"spec": dataclasses.asdict(spec)})
        job_id = job["id"]
        frames = [f for f in client.stream_telemetry(job_id, timeout_s=120.0)
                  if "seq" in f and f.get("event") is None]
        end_state = client.get_job(job_id).get("state")
    finally:
        api.stop()
    elapsed = time.perf_counter() - start

    if end_state != "done":
        failures.append(f"streamed job ended {end_state!r}, expected 'done'")
    if not frames:
        failures.append("telemetry stream yielded no frames")
    seqs = [f["seq"] for f in frames]
    slots = [f["slot"] for f in frames]
    if seqs != list(range(len(seqs))):
        failures.append(f"stream seq not contiguous from 0: {seqs}")
    if any(b <= a for a, b in zip(slots, slots[1:])):
        failures.append(f"stream slots not strictly increasing: {slots}")
    if frames and not frames[-1].get("final"):
        failures.append("last streamed frame is not marked final")

    store = MetricsStore(store_path)
    points = store.series(job_id, "energy_j").get("energy_j", [])
    if len(points) != len(frames):
        failures.append(
            f"store has {len(points)} energy_j frames, stream delivered {len(frames)}"
        )
    if store.run(job_id) is None:
        failures.append("streamed job summary never landed as a store run row")
    print(f"stream: {elapsed:6.2f}s  {len(frames)} frames  "
          f"slots={slots}  state={end_state!r}")
    return elapsed


def stage_dashboard(store_path: str, out_dir: str, failures: list) -> float:
    start = time.perf_counter()
    out = os.path.join(out_dir, "dashboard.html")
    write_dashboard(out, store=MetricsStore(store_path),
                    artifact_dir=ARTIFACT_DIR)
    elapsed = time.perf_counter() - start
    with open(out, "r", encoding="utf-8") as handle:
        html = handle.read()
    for needle in ("<svg", "repro-sim metrics", "</html>"):
        if needle not in html:
            failures.append(f"dashboard missing {needle!r}")
    if len(html) < 4_000:
        failures.append(f"dashboard implausibly small ({len(html)} bytes)")
    print(f"dashboard: {elapsed:6.2f}s  {len(html)} bytes")
    return elapsed


def _regressed_fixture(path: str) -> None:
    """A two-run trajectory whose latest run triples its energy."""
    runs = []
    for energy in (100.0, 100.0, 300.0):
        runs.append(bench_record(
            "seeded", metrics={"energy_kj": energy}, context={"scenario": "fixture"},
        ))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"benchmark": "seeded", "runs": runs}, handle)


def stage_regress(tmp: str, failures: list) -> float:
    start = time.perf_counter()
    clean = cli_main(["metrics", "regress", "--artifacts", ARTIFACT_DIR])
    if clean != 0:
        failures.append(f"metrics regress exited {clean} on the real artifacts")
    fixture_dir = os.path.join(tmp, "regressed_artifacts")
    os.makedirs(fixture_dir, exist_ok=True)
    _regressed_fixture(os.path.join(fixture_dir, "BENCH_seeded.json"))
    seeded = cli_main(["metrics", "regress", "--artifacts", fixture_dir])
    if seeded != 1:
        failures.append(f"metrics regress exited {seeded} on the seeded regression, expected 1")
    elapsed = time.perf_counter() - start
    print(f"regress: {elapsed:6.2f}s  clean_exit={clean}  seeded_exit={seeded}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-seconds", type=float, default=300.0,
                        help="wall-clock gate for the whole analytics path")
    args = parser.parse_args(argv)

    failures: list = []
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-analytics-smoke-") as tmp:
        store_path = os.path.join(tmp, "metrics.sqlite")
        sweep_s = stage_sweep(store_path, failures)
        stream_s = stage_stream(os.path.join(tmp, "service"), store_path, failures)
        dashboard_s = stage_dashboard(store_path, tmp, failures)
        regress_s = stage_regress(tmp, failures)
        store = MetricsStore(store_path)
        runs_ingested = store.count_runs()
        frames_ingested = store.count_series()
    total_s = time.perf_counter() - started
    if total_s > args.max_seconds:
        failures.append(
            f"analytics path took {total_s:.1f}s, over the "
            f"{args.max_seconds:.0f}s gate"
        )

    append_trajectory(ARTIFACT_PATH, bench_record(
        "analytics_smoke",
        metrics={
            "sweep_s": round(sweep_s, 3),
            "stream_s": round(stream_s, 3),
            "dashboard_s": round(dashboard_s, 3),
            "regress_s": round(regress_s, 3),
            "total_s": round(total_s, 3),
            "runs_ingested": runs_ingested,
            "frames_ingested": frames_ingested,
        },
        context={
            "scenarios": len(SWEEP_SCENARIOS),
            "policies": len(SWEEP_POLICIES),
            "users": SMOKE_USERS,
            "slots": SMOKE_SLOTS,
        },
        gates={"max_seconds": args.max_seconds},
        extra={"failures": failures},
    ))

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"analytics smoke ok: sweep + live stream + dashboard + regress "
          f"in {total_s:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

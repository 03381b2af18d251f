"""Experiment-service crash/resume smoke check (CI gate).

The gate exercises the full service stack the way an operator would:

1. **Reference** — the scenario runs uninterrupted in-process
   (:func:`repro.analysis.runner.run_spec`) and its summary becomes the
   ground truth.
2. **Crash** — ``repro-sim serve`` boots as a subprocess, the same scenario
   is submitted over HTTP, and once the job's periodic auto-checkpoint has
   passed ``--kill-after-slots`` the server is killed with ``SIGKILL`` —
   no shutdown hook, no final checkpoint, exactly a machine loss.  The
   server keeps two snapshots (``--keep-last 2``) and the kill waits for the
   third, so the snapshot resumed from leaves vectors in the packs earlier
   snapshots wrote (checkpoint format v7).
3. **Resume** — ``repro-sim jobs resume <id>`` continues the job from its
   last on-disk checkpoint in a fresh process.  The gate fails unless every
   headline metric of the resumed run is **bitwise identical** to the
   uninterrupted reference, and unless the crashed-plus-resumed wall-clock
   stays within ``--max-overhead`` times the reference.

Every run appends a record to ``benchmark_artifacts/BENCH_service.json``
(reference seconds, interrupted + resume seconds, checkpoint slot at the
kill, metric mismatches) so resume-overhead regressions are visible across
commits.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

from repro.analysis.runner import run_spec, summarize_result
from repro.metrics.bench import append_trajectory, bench_record
from repro.scenarios.runner import scenario_run_spec

ARTIFACT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmark_artifacts",
    "BENCH_service.json",
)

#: The headline metrics that must survive a crash bitwise.
HEADLINE_KEYS = (
    "energy_j",
    "final_accuracy",
    "best_accuracy",
    "num_updates",
    "decision_evaluations",
    "mean_queue_length",
    "mean_virtual_queue_length",
    "final_virtual_queue_length",
    "schedule_fraction",
    "corun_jobs",
    "background_jobs",
    "comm_bytes_mb",
    "comm_failures",
    "mean_final_battery_soc",
)


def _request(base: str, method: str, path: str, payload=None, timeout=10.0):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(base + path, data=data, method=method)
    if data:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _wait_for_server(base: str, deadline_s: float = 30.0) -> None:
    deadline = time.time() + deadline_s
    while time.time() < deadline:
        try:
            if _request(base, "GET", "/healthz").get("ok"):
                return
        except (urllib.error.URLError, ConnectionError, OSError):
            time.sleep(0.2)
    raise RuntimeError(f"service at {base} never became healthy")


def _cli(*argv: str, timeout: float):
    """Run a repro-sim subcommand in a fresh interpreter."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(repo, "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        env=env, cwd=repo, timeout=timeout, capture_output=True, text=True,
    )


def mismatched_keys(reference: dict, resumed: dict):
    return [
        key for key in HEADLINE_KEYS if reference.get(key) != resumed.get(key)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="megafleet-1k",
                        help="registry scenario to crash and resume")
    parser.add_argument("--trace-level", default="summary",
                        choices=["full", "summary", "off"])
    parser.add_argument("--root", default=None,
                        help="service state dir (default: a temp dir)")
    parser.add_argument("--port", type=int, default=8931)
    parser.add_argument("--checkpoint-every", type=int, default=1000,
                        help="auto-checkpoint interval in slots")
    parser.add_argument("--kill-after-slots", type=int, default=3000,
                        help="SIGKILL the server once a checkpoint at or "
                             "past this slot has landed (default: the third "
                             "snapshot, which leaves vectors in the packs "
                             "the first two wrote)")
    parser.add_argument("--max-overhead", type=float, default=2.5,
                        help="fail when (crashed + resumed) wall-clock "
                             "exceeds this factor times the uninterrupted "
                             "reference (checkpoints cost deep copies; the "
                             "resume re-imports and rebuilds static state)")
    parser.add_argument("--max-seconds", type=float, default=900.0,
                        help="hard wall-clock budget for the whole gate")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = args.root
    if root is None:
        import tempfile

        root = tempfile.mkdtemp(prefix="repro-service-smoke-")

    spec = scenario_run_spec(
        args.scenario, policy="online", trace_level=args.trace_level
    )
    job_id = spec.config_hash()

    # 1. Uninterrupted reference.
    t0 = time.perf_counter()
    reference = json.loads(
        summarize_result(spec, run_spec(spec)).to_json()
    )
    ref_s = time.perf_counter() - t0
    print(f"reference: {ref_s:6.1f}s  energy={reference['energy_kj']:.1f} kJ  "
          f"updates={reference['num_updates']}  "
          f"accuracy={reference['final_accuracy']:.3f}")

    # 2. Serve, submit, crash.
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(repo, "src"), env.get("PYTHONPATH")) if p
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--root", root,
         "--port", str(args.port), "--workers", "1",
         "--checkpoint-every", str(args.checkpoint_every),
         "--keep-last", "2"],
        env=env, cwd=repo,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    base = f"http://127.0.0.1:{args.port}"
    failures = []
    kill_slot = None
    t1 = time.perf_counter()
    try:
        _wait_for_server(base)
        record = _request(base, "POST", "/jobs", {
            "scenario": args.scenario, "policy": "online",
            "trace_level": args.trace_level,
        })
        assert record["id"] == job_id, (record["id"], job_id)
        deadline = started + args.max_seconds
        while time.perf_counter() < deadline:
            telemetry = _request(base, "GET", f"/jobs/{job_id}/telemetry")
            if telemetry["state"] in ("done", "failed"):
                failures.append(
                    f"job reached {telemetry['state']!r} before the kill; "
                    f"lower --kill-after-slots (< {telemetry['total_slots']})"
                )
                break
            if telemetry["slot"] >= args.kill_after_slots:
                kill_slot = telemetry["slot"]
                break
            time.sleep(0.5)
        else:
            failures.append("hit --max-seconds before the kill checkpoint")
    finally:
        if server.poll() is None and kill_slot is not None:
            server.send_signal(signal.SIGKILL)  # no shutdown hook: a machine loss
        elif server.poll() is None:
            server.kill()
        server.wait(timeout=30)
    interrupted_s = time.perf_counter() - t1
    if kill_slot is not None:
        print(f"killed -9 at checkpoint slot {kill_slot} "
              f"after {interrupted_s:6.1f}s")

    resume_s = None
    mismatches = []
    if not failures:
        # 3. Resume in a fresh process and gate the headline metrics.
        t2 = time.perf_counter()
        proc = _cli("jobs", "resume", job_id, "--root", root,
                    "--checkpoint-every", str(args.checkpoint_every),
                    timeout=max(60.0, args.max_seconds - (time.perf_counter() - started)))
        resume_s = time.perf_counter() - t2
        if proc.returncode != 0:
            failures.append(
                f"jobs resume exited {proc.returncode}: {proc.stderr[-500:]}"
            )
        else:
            result_path = os.path.join(root, "jobs", job_id, "result.json")
            with open(result_path, "r", encoding="utf-8") as handle:
                resumed = json.load(handle)
            mismatches = mismatched_keys(reference, resumed)
            status = "bitwise identical" if not mismatches else "DIVERGED"
            print(f"resume: {resume_s:6.1f}s  {status}  "
                  f"energy={resumed['energy_kj']:.1f} kJ  "
                  f"updates={resumed['num_updates']}")
            if mismatches:
                for key in mismatches:
                    failures.append(
                        f"resumed {key} = {resumed.get(key)!r} != "
                        f"reference {reference.get(key)!r}"
                    )
            overhead = (interrupted_s + resume_s) / ref_s if ref_s > 0 else float("inf")
            print(f"overhead: ({interrupted_s:.1f}s + {resume_s:.1f}s) / "
                  f"{ref_s:.1f}s = {overhead:.2f}x")
            if overhead > args.max_overhead:
                failures.append(
                    f"crash+resume overhead {overhead:.2f}x exceeds the "
                    f"{args.max_overhead:.2f}x gate"
                )

    append_trajectory(ARTIFACT_PATH, bench_record(
        "service_smoke",
        metrics={
            "reference_s": round(ref_s, 2),
            "interrupted_s": round(interrupted_s, 2),
            "resume_s": None if resume_s is None else round(resume_s, 2),
        },
        context={
            "scenario": args.scenario,
            "kill_slot": kill_slot,
            "checkpoint_every": args.checkpoint_every,
        },
        gates={"max_overhead": args.max_overhead},
        extra={"mismatches": mismatches, "failures": failures},
    ))

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"service smoke ok: kill -9 + resume on {args.scenario} is "
          f"bitwise identical to the uninterrupted run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

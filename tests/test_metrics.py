"""Metrics subsystem: run store, telemetry sink, regression detector, dashboard.

``TestLivePath`` drives the operator's path end to end (sweep -> store ->
chunked HTTP stream -> dashboard); ``TestRegressionDetector`` runs
``repro-sim metrics regress`` on the repo's real ``benchmark_artifacts`` and
on a seeded regression.  The rest pins down the layer contracts: idempotent /
concurrent store ingest, the sink's strictly-increasing frame stream across
recoveries, the one ``BENCH_*.json`` record schema, tolerance matching, and
dashboard rendering edges.
"""

import dataclasses
import json
import multiprocessing
import sqlite3
from pathlib import Path

import pytest

from repro.analysis.runner import RunSpec, RunSummary
from repro.faults import FaultEvent, FaultPlan
from repro.metrics.bench import load_bench_dir, load_bench_file, normalize_run
from repro.metrics.dashboard import render_dashboard, write_dashboard
from repro.metrics.ingest import TelemetrySink, last_frame, read_frames
from repro.metrics.query import headline_pivot, version_history
from repro.metrics.regress import (
    detect_bench_regressions,
    detect_store_regressions,
    parse_tolerance_overrides,
    tolerance_for,
)
from repro.metrics.store import MetricsStore, scenario_from_label
from repro.scenarios import ScenarioRunner, get_scenario
from repro.service.api import serve
from repro.service.client import ServiceClient
from repro.service.jobs import ExperimentService


def tiny_spec(**overrides) -> RunSpec:
    config = dict(
        num_users=3,
        total_slots=40,
        app_arrival_prob=0.01,
        seed=3,
        num_train_samples=120,
        num_test_samples=60,
        hidden_dims=(4,),
        eval_interval_slots=20,
        trace_interval_slots=10,
        learning_rate=0.05,
    )
    config.update(overrides.pop("config", {}))
    return RunSpec(policy="online", config=config, **overrides)


def fake_summary(spec_hash: str, policy: str = "online",
                 label: str = None, energy_j: float = 1000.0,
                 **overrides) -> RunSummary:
    fields = dict(
        spec_hash=spec_hash,
        policy=policy,
        label=label if label is not None else f"{policy}-{spec_hash}",
        energy_j=energy_j,
        energy_kj=energy_j / 1000.0,
        final_accuracy=0.8,
        best_accuracy=0.85,
        num_updates=40,
        decision_evaluations=400,
        mean_queue_length=1.5,
        mean_virtual_queue_length=100.0,
        final_virtual_queue_length=90.0,
        schedule_fraction=0.5,
        corun_jobs=3,
        background_jobs=7,
        comm_bytes_mb=1.25,
        comm_failures=0,
        mean_final_battery_soc=0.7,
        wall_time_s=2.0,
    )
    fields.update(overrides)
    return RunSummary(**fields)


class TestMetricsStore:
    def test_ingest_run_is_idempotent(self, tmp_path):
        store = MetricsStore(tmp_path / "m.sqlite")
        summary = fake_summary("a" * 16)
        assert store.ingest_run(summary, spec=tiny_spec()) == "a" * 16
        store.ingest_run(summary, spec=tiny_spec())
        assert store.count_runs() == 1
        row = store.run("a" * 16)
        assert row["energy_j"] == 1000.0
        assert row["seed"] == 3
        assert row["shards"] == 1

    def test_reingest_without_spec_keeps_identity_columns(self, tmp_path):
        """Carbon re-annotation re-ingests bare summaries; identity survives."""
        store = MetricsStore(tmp_path / "m.sqlite")
        store.ingest_run(fake_summary("b" * 16), spec=tiny_spec(config={"seed": 9}))
        annotated = fake_summary("b" * 16, carbon_g=42.0)
        store.ingest_run(annotated)  # no spec this time
        row = store.run("b" * 16)
        assert row["seed"] == 9
        assert row["shards"] == 1
        assert row["carbon_g"] == 42.0

    def test_store_file_with_the_old_backend_column_still_works(self, tmp_path):
        """A sqlite file created before ``backend`` left the schema keeps the
        extra column; new rows ingest beside the old ones and both line up as
        one trajectory (the identity key no longer reads it)."""
        from repro.metrics import store as store_module

        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(
            store_module._SCHEMA.replace(
                "seed INTEGER,", "seed INTEGER,\n    backend TEXT,"
            )
        )
        conn.execute(
            "INSERT INTO runs (spec_hash, policy, label, seed, backend, shards, "
            "repro_version, energy_j, ingested_at) "
            "VALUES ('old-hash', 'online', 'sweep', 3, 'fleet', 1, '0.9', 990.0, 1.0)"
        )
        conn.commit()
        conn.close()

        store = MetricsStore(path)
        store.ingest_run(fake_summary("n" * 16, label="sweep"), spec=tiny_spec())
        assert [row["spec_hash"] for row in store.runs(policy="online", seed=3)] == [
            "old-hash", "n" * 16
        ]
        (trajectory,) = version_history(store).values()
        assert [entry["energy_j"] for entry in trajectory] == [990.0, 1000.0]

    def test_scenario_parsed_from_label(self, tmp_path):
        assert scenario_from_label("scenario:churny-fleet[online]") == "churny-fleet"
        assert scenario_from_label("ad-hoc run") is None
        store = MetricsStore(tmp_path / "m.sqlite")
        store.ingest_run(fake_summary("c" * 16, label="scenario:churny-fleet[online]"))
        assert store.run("c" * 16)["scenario"] == "churny-fleet"
        assert store.scenarios() == ["churny-fleet"]

    def test_runs_filters(self, tmp_path):
        store = MetricsStore(tmp_path / "m.sqlite")
        store.ingest_run(fake_summary("d" * 16, policy="online"))
        store.ingest_run(fake_summary("e" * 16, policy="immediate"))
        assert len(store.runs()) == 2
        assert [r["spec_hash"] for r in store.runs(policy="online")] == ["d" * 16]

    def test_frames_become_series_points(self, tmp_path):
        store = MetricsStore(tmp_path / "m.sqlite")
        for slot, energy in ((10, 5.0), (20, 11.0)):
            store.ingest_frame("f" * 16, {
                "seq": slot // 10 - 1, "slot": slot, "total_slots": 40,
                "energy_j": energy, "accuracy": None, "final": slot == 20,
            })
        series = store.series("f" * 16)
        assert series["energy_j"] == [(10, 5.0), (20, 11.0)]
        # bookkeeping / None / bool keys never become metric rows
        assert set(series) == {"energy_j"}

    def test_memory_store_is_usable(self):
        store = MetricsStore(":memory:")
        store.ingest_run(fake_summary("9" * 16))
        assert store.count_runs() == 1


def _ingest_worker(args):
    """Module-level worker: concurrent cross-process writes to one sqlite."""
    path, worker = args
    store = MetricsStore(path)
    for index in range(5):
        spec_hash = f"{worker:02d}{index:02d}" + "0" * 12
        store.ingest_run(fake_summary(spec_hash))
        store.ingest_frame(spec_hash, {
            "seq": 0, "slot": 10, "total_slots": 40, "energy_j": 1.0,
        })
    return worker


class TestConcurrentIngest:
    def test_cross_process_writers_all_land(self, tmp_path):
        path = str(tmp_path / "m.sqlite")
        MetricsStore(path).count_runs()  # create the schema up front
        with multiprocessing.Pool(4) as pool:
            done = pool.map(_ingest_worker, [(path, w) for w in range(4)])
        assert sorted(done) == [0, 1, 2, 3]
        store = MetricsStore(path)
        assert store.count_runs() == 20
        assert store.count_series() == 20


class TestTelemetrySink:
    def test_slots_are_strictly_monotonic(self, tmp_path):
        sink = TelemetrySink(path=tmp_path / "t.jsonl", total_slots=40)
        assert sink.emit(10, {"energy_j": 1.0})["seq"] == 0
        # a recovery replaying earlier slots is dropped
        assert sink.emit(10, {"energy_j": 1.0}) is None
        assert sink.emit(5, {"energy_j": 0.5}) is None
        assert sink.emit(20, {"energy_j": 2.0})["seq"] == 1
        # the final frame may share the last checkpoint's slot
        final = sink.emit(20, {"energy_j": 2.0}, final=True)
        assert final["seq"] == 2 and final["final"] is True
        slots = [f["slot"] for f in read_frames(tmp_path / "t.jsonl")]
        assert slots == [10, 20, 20]

    def test_fresh_sink_resumes_from_file_tail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        first = TelemetrySink(path=path, total_slots=40)
        first.emit(10, {"energy_j": 1.0})
        first.emit(20, {"energy_j": 2.0})
        # a service retry builds a new sink over the same file
        resumed = TelemetrySink(path=path, total_slots=40)
        assert resumed.last_frame["seq"] == 1
        assert resumed.emit(20, {"energy_j": 2.0}) is None  # replay dropped
        frame = resumed.emit(30, {"energy_j": 3.0})
        assert frame["seq"] == 2
        assert [f["seq"] for f in read_frames(path)] == [0, 1, 2]
        assert last_frame(path)["slot"] == 30

    def test_read_frames_after_seq(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = TelemetrySink(path=path, total_slots=40)
        for slot in (10, 20, 30):
            sink.emit(slot, {"energy_j": float(slot)})
        assert [f["slot"] for f in read_frames(path, after_seq=0)] == [20, 30]

    def test_torn_tail_line_is_ignored(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = TelemetrySink(path=path, total_slots=40)
        sink.emit(10, {"energy_j": 1.0})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 1, "slot":')  # crash mid-write
        assert [f["seq"] for f in read_frames(path)] == [0]
        assert last_frame(path)["seq"] == 0


class TestChaosFrameOrdering:
    def test_stream_stays_monotonic_across_a_faulted_retry(self, tmp_path):
        """A corrupt-checkpoint fault plus resume must not fork the stream."""
        plan = FaultPlan(events=[FaultEvent(kind="corrupt_checkpoint", at=20)])
        service = ExperimentService(
            tmp_path, checkpoint_every=10, retry=None, fault_plan=plan,
            metrics_store=str(tmp_path / "m.sqlite"),
        )
        record = service.submit(tiny_spec(), enqueue=False)
        service._running.discard(record.id)
        failed = service.run_job(record.id)
        assert failed.state == "failed"
        service._running.discard(record.id)
        resumed = service.run_job(record.id)
        assert resumed.state == "done"
        service.shutdown(wait=False)

        frames = read_frames(service.telemetry_path(record.id))
        seqs = [f["seq"] for f in frames]
        slots = [f["slot"] for f in frames]
        assert seqs == list(range(len(frames)))
        assert all(b > a for a, b in zip(slots, slots[1:-1])), slots
        assert frames[-1]["final"] is True
        # the same frames landed in the store's series table
        store = MetricsStore(str(tmp_path / "m.sqlite"))
        energy = store.series(record.id).get("energy_j", [])
        assert [slot for slot, _ in energy] == sorted({f["slot"] for f in frames})
        # and the poll endpoint overlays the tail frame on the job record
        payload = service.telemetry(record.id)
        assert payload["state"] == "done"
        assert payload["seq"] == seqs[-1]
        assert payload["total_slots"] == 40


class TestLivePath:
    """The operator's path end to end: a sweep lands in the store, a live
    service job streams over chunked NDJSON into the same store, and the
    dashboard renders from it."""

    def test_sweep_stream_and_dashboard_share_one_store(self, tmp_path):
        store_path = str(tmp_path / "m.sqlite")
        runner = ScenarioRunner(jobs=1, metrics_store=store_path)
        specs = []
        for name in ("paper-baseline", "diurnal-commuters"):
            spec = get_scenario(name)
            specs.append(spec.scaled(
                num_users=6, total_slots=300,
                base=dict(spec.base, num_train_samples=200, num_test_samples=80,
                          eval_interval_slots=150),
            ))
        for policy in ("immediate", "online"):
            runner.run(specs, policy=policy)
        store = MetricsStore(store_path)
        assert store.count_runs() == 4
        for policy in ("immediate", "online"):
            rows = store.runs(policy=policy)
            assert len(rows) == 2
            assert all(row["energy_j"] and row["num_updates"] is not None for row in rows)

        api = serve(tmp_path / "service", port=0, workers=1, checkpoint_every=10,
                    metrics_store=store_path)
        api.start()
        try:
            client = ServiceClient(f"127.0.0.1:{api.port}")
            job_id = client.submit({"spec": dataclasses.asdict(tiny_spec())})["id"]
            lines = list(client.stream_telemetry(job_id, timeout_s=120.0))
        finally:
            api.stop()
        *frames, end = lines
        seqs = [frame["seq"] for frame in frames]
        assert end == {"event": "end", "state": "done", "seq": seqs[-1]}
        slots = [frame["slot"] for frame in frames]
        assert frames and seqs == list(range(len(frames)))
        assert all(b > a for a, b in zip(slots, slots[1:])), slots
        assert frames[-1]["final"] is True and slots[-1] == 40
        store = MetricsStore(store_path)
        assert len(store.series(job_id, "energy_j")["energy_j"]) == len(frames)
        assert store.run(job_id) is not None

        html = render_dashboard(store=store)
        for needle in ("<svg", "repro-sim metrics", "paper-baseline", "</html>"):
            assert needle in html


ARTIFACTS = Path(__file__).resolve().parents[1] / "benchmark_artifacts"


def _record(benchmark, metrics, **extra):
    """One literal schema-1 trajectory record."""
    record = {"schema": 1, "benchmark": benchmark,
              "context": {"scenario": "fixture"}, "metrics": metrics, "gates": {}}
    record.update(extra)
    return record


def _flat_trajectory(path, energies, benchmark="seeded"):
    runs = [_record(benchmark, {"energy_kj": energy}) for energy in energies]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"benchmark": benchmark, "runs": runs}, handle)


class TestRegressionDetector:
    def test_seeded_regression_is_detected(self, tmp_path):
        _flat_trajectory(tmp_path / "BENCH_seeded.json", [100.0, 100.0, 300.0])
        regressions, stats = detect_bench_regressions(tmp_path)
        assert stats == {"files": 1, "groups": 1, "checks": 1}
        assert len(regressions) == 1
        assert regressions[0].metric == "energy_kj"

    def test_flat_trajectory_is_clean(self, tmp_path):
        _flat_trajectory(tmp_path / "BENCH_seeded.json", [100.0, 100.0, 100.0])
        regressions, _ = detect_bench_regressions(tmp_path)
        assert regressions == []

    def test_direction_low_ignores_improvements(self, tmp_path):
        runs = [
            _record("acc", {"accuracy": value})
            for value in (0.80, 0.80, 0.95)  # accuracy went UP
        ]
        with open(tmp_path / "BENCH_acc.json", "w", encoding="utf-8") as handle:
            json.dump({"benchmark": "acc", "runs": runs}, handle)
        regressions, _ = detect_bench_regressions(tmp_path)
        assert regressions == []

    def test_overrides_widen_the_tolerance(self, tmp_path):
        _flat_trajectory(tmp_path / "BENCH_seeded.json", [100.0, 100.0, 300.0])
        overrides = parse_tolerance_overrides(["*energy*=5.0"])
        regressions, _ = detect_bench_regressions(tmp_path, tolerances=overrides)
        assert regressions == []

    def test_cli_exit_codes_on_real_artifacts_and_seeded_fixture(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        # Records of two workloads under one benchmark are two histories.
        assert cli_main(["metrics", "regress", "--artifacts", str(ARTIFACTS)]) == 0
        _flat_trajectory(tmp_path / "BENCH_seeded.json", [100.0, 100.0, 300.0])
        assert cli_main(["metrics", "regress", "--artifacts", str(tmp_path)]) == 1

    def test_tolerance_table_matching(self):
        assert tolerance_for("max_divergence").abs_tol == pytest.approx(1e-12)
        assert tolerance_for("energy_kj").rel == pytest.approx(0.01)
        assert tolerance_for("wall_s").direction == "high"
        assert tolerance_for("gate.wall_s").direction == "high"  # leaf match
        assert tolerance_for("final_accuracy").direction == "low"

    def test_store_history_regression(self, tmp_path):
        store = MetricsStore(tmp_path / "m.sqlite")
        # same identity (label/policy/seed), new package version = new hash
        store.ingest_run(fake_summary("1" * 16, label="sweep", energy_j=1000.0))
        store.ingest_run(fake_summary("2" * 16, label="sweep", energy_j=1000.0))
        store.ingest_run(fake_summary("3" * 16, label="sweep", energy_j=3000.0))
        assert len(version_history(store)) == 1
        regressions, stats = detect_store_regressions(store)
        assert stats["groups"] == 1
        assert any(r.metric == "energy_j" for r in regressions)


class TestBenchSchema:
    def test_every_repo_trajectory_record_is_schema_1(self):
        checked = 0
        for path in sorted(ARTIFACTS.glob("BENCH_*.json")):
            runs = json.loads(path.read_text()).get("runs")
            for index, run in enumerate(runs if isinstance(runs, list) else []):
                assert run.get("schema") == 1, (path.name, index)
                assert isinstance(run.get("metrics"), dict), (path.name, index)
                checked += 1
        assert checked > 0

    def test_record_without_schema_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="schema-1"):
            normalize_run("x", {"scenario": "old", "wall_s": 1.0})
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps({"benchmark": "old", "runs": [
            _record("old", {"wall_s": 1.0}), {"scenario": "old", "wall_s": 1.0},
        ]}))
        with pytest.raises(ValueError):
            load_bench_file(path)
        assert load_bench_dir(tmp_path) == {"BENCH_old.json": []}

    def test_extra_rides_at_top_level_without_breaking_metrics(self):
        record = _record("x", {"wall_s": 1.0, "ok": True, "note": "text"},
                         failures=["boom"], detail={"a": 1})
        run = normalize_run("x", record)
        assert run.metrics == {"ok": 1.0, "wall_s": 1.0}
        assert run.context == {"scenario": "fixture"}


class TestDashboard:
    def test_empty_store_renders_placeholder(self):
        html = render_dashboard(store=MetricsStore(":memory:"))
        assert "No runs ingested yet" in html
        assert "</html>" in html

    def test_populated_store_renders_pivot_and_sparklines(self, tmp_path):
        store = MetricsStore(":memory:")
        for policy, energy in (("immediate", 2000.0), ("online", 1200.0)):
            spec_hash = ("1" if policy == "online" else "2") * 16
            store.ingest_run(fake_summary(
                spec_hash, policy=policy,
                label=f"scenario:paper-baseline[{policy}]", energy_j=energy,
            ))
            for slot in (10, 20, 30):
                store.ingest_frame(spec_hash, {
                    "seq": slot // 10 - 1, "slot": slot, "total_slots": 30,
                    "energy_j": energy * slot / 30.0,
                })
        out = tmp_path / "dash.html"
        write_dashboard(out, store=store)
        html = out.read_text()
        assert "<svg" in html
        assert "paper-baseline" in html
        assert "online" in html
        # deltas vs the immediate baseline are glyph+label, not color-only
        assert ("▼" in html) or ("▲" in html)

    def test_query_helpers_feed_the_dashboard(self):
        store = MetricsStore(":memory:")
        store.ingest_run(fake_summary(
            "1" * 16, policy="immediate",
            label="scenario:paper-baseline[immediate]", energy_j=2000.0))
        store.ingest_run(fake_summary(
            "2" * 16, policy="online",
            label="scenario:paper-baseline[online]", energy_j=1000.0))
        pivot = headline_pivot(store, metric="energy_j")
        assert pivot["paper-baseline"] == {"immediate": 2000.0, "online": 1000.0}

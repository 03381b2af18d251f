"""Metrics subsystem: run store, telemetry sink, regression detector, dashboard.

``TestLivePath`` drives the operator's path end to end (sweep -> store ->
chunked HTTP stream -> dashboard); ``TestRegressionDetector`` runs
``repro-sim metrics regress`` on a seeded store, flat and drifted.  The rest
pins down the layer contracts: idempotent / concurrent store ingest, the
sink's strictly-increasing frame stream across recoveries, tolerance
matching and validation, and dashboard rendering edges.
"""

import dataclasses
import multiprocessing
import sqlite3

import pytest

from repro.analysis.runner import RunSpec, RunSummary
from repro.faults import FaultEvent, FaultPlan
from repro.metrics.dashboard import render_dashboard, write_dashboard
from repro.metrics.ingest import TelemetrySink, last_frame, read_frames
from repro.metrics.query import headline_pivot, version_history
from repro.metrics.regress import (
    STORE_METRICS,
    Tolerance,
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

    def test_store_file_with_the_old_comm_failures_column_still_works(self, tmp_path):
        """A sqlite file created while runs reported ``comm_failures`` keeps
        that column: new rows ingest with it NULL, old rows keep their value,
        and both line up as one trajectory."""
        from repro.metrics import store as store_module

        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(
            store_module._SCHEMA.replace(
                "comm_bytes_mb REAL,", "comm_bytes_mb REAL,\n    comm_failures INTEGER,"
            )
        )
        conn.execute(
            "INSERT INTO runs (spec_hash, policy, label, seed, shards, repro_version, "
            "energy_j, comm_bytes_mb, comm_failures, ingested_at) "
            "VALUES ('old-hash', 'online', 'sweep', 3, 1, '0.9', 990.0, 2.5, 0, 1.0)"
        )
        conn.commit()
        conn.close()

        store = MetricsStore(path)
        store.ingest_run(fake_summary("n" * 16, label="sweep"), spec=tiny_spec())
        rows = store.runs(policy="online", seed=3)
        assert [row["spec_hash"] for row in rows] == ["old-hash", "n" * 16]
        assert [row["comm_failures"] for row in rows] == [0, None]
        assert [row["comm_bytes_mb"] for row in rows] == [2.5, 1.25]
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


def seeded_store(path, values, metric="energy_j"):
    """A store holding one run identity ingested once per value, oldest
    first: each ingest is a new package version of the same sweep cell."""
    store = MetricsStore(path)
    for index, value in enumerate(values):
        store.ingest_run(fake_summary(f"{index + 1:x}" * 16, label="sweep",
                                      **{metric: value}))
    return store


class TestRegressionDetector:
    def test_seeded_regression_is_detected(self, tmp_path):
        store = seeded_store(tmp_path / "m.sqlite", [1000.0, 1000.0, 3000.0])
        assert len(version_history(store)) == 1
        regressions, stats = detect_store_regressions(store)
        assert stats == {"groups": 1, "checks": len(STORE_METRICS) - 1}  # no carbon
        assert [r.metric for r in regressions] == ["energy_j"]
        assert regressions[0].describe().startswith("[sweep policy=online")

    def test_flat_history_is_clean(self, tmp_path):
        store = seeded_store(tmp_path / "m.sqlite", [1000.0, 1000.0, 1000.0])
        assert detect_store_regressions(store)[0] == []

    def test_direction_low_ignores_improvements(self, tmp_path):
        # final accuracy went UP; a drop of the same size is flagged
        store = seeded_store(tmp_path / "up.sqlite", [0.80, 0.80, 0.95],
                             metric="final_accuracy")
        assert detect_store_regressions(store)[0] == []
        store = seeded_store(tmp_path / "down.sqlite", [0.95, 0.95, 0.80],
                             metric="final_accuracy")
        assert [r.metric for r in detect_store_regressions(store)[0]] == [
            "final_accuracy"
        ]

    def test_overrides_widen_the_tolerance(self, tmp_path):
        store = seeded_store(tmp_path / "m.sqlite", [1000.0, 1000.0, 3000.0])
        overrides = parse_tolerance_overrides(["*energy*=5.0"])
        assert detect_store_regressions(store, tolerances=overrides)[0] == []

    def test_cli_exit_codes_on_flat_and_drifted_stores(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        flat = tmp_path / "flat.sqlite"
        drifted = tmp_path / "drifted.sqlite"
        seeded_store(flat, [1000.0, 1000.0, 1000.0])
        seeded_store(drifted, [1000.0, 1000.0, 3000.0])
        assert cli_main(["metrics", "regress", "--store", str(flat)]) == 0
        assert "1 group(s) with history" in capsys.readouterr().out
        assert cli_main(["metrics", "regress", "--store", str(drifted)]) == 1
        assert "energy_j: 1000 -> 3000" in capsys.readouterr().out
        with pytest.raises(SystemExit) as usage:  # nothing to check
            cli_main(["metrics", "regress"])
        assert usage.value.code == 2
        assert "--store" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["regress"], ["runs"], ["dashboard", "--out", "dash.html"],
    ], ids=["regress", "runs", "dashboard"])
    def test_read_only_commands_refuse_a_missing_store(self, command, tmp_path,
                                                      capsys, monkeypatch):
        """A mistyped path must not read as an empty, clean store."""
        from repro.cli import main as cli_main

        monkeypatch.chdir(tmp_path)
        missing = tmp_path / "missing.sqlite"
        with pytest.raises(SystemExit) as usage:
            cli_main(["metrics", *command, "--store", str(missing)])
        assert usage.value.code == 2
        assert str(missing) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # no store, no dashboard

    def test_ingest_creates_the_store(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        store = tmp_path / "new" / "runs.sqlite"
        cache = tmp_path / "cache"
        cache.mkdir()
        assert cli_main(["metrics", "ingest", "--store", str(store),
                         "--cache-dir", str(cache)]) == 0
        assert store.is_file()
        assert cli_main(["metrics", "regress", "--store", str(store)]) == 0
        assert "0 group(s) with history" in capsys.readouterr().out

    @pytest.mark.parametrize("spec",["*energy*=nan", "*energy*=-1",
                                      "*energy*=inf", "*energy*=0:nan",
                                      "*energy*=0:-1"])
    def test_non_finite_or_negative_tolerance_is_refused(self, spec, tmp_path):
        from repro.cli import main as cli_main

        with pytest.raises(ValueError, match="finite and non-negative"):
            parse_tolerance_overrides([spec])
        store = tmp_path / "m.sqlite"
        seeded_store(store, [100.0, 100.0, 1e9])
        with pytest.raises(SystemExit, match="finite and non-negative"):
            cli_main(["metrics", "regress", "--store", str(store),
                      "--tolerance", spec])

    def test_tolerance_table_matching(self):
        assert tolerance_for("energy_j").rel == pytest.approx(0.01)
        assert tolerance_for("wall_time_s").direction == "high"
        assert tolerance_for("final_accuracy").direction == "low"
        assert tolerance_for("best_accuracy").abs_tol == pytest.approx(0.02)
        for metric in STORE_METRICS:  # every compared column has a row
            tolerance_for(metric)
        with pytest.raises(LookupError):
            tolerance_for("max_divergence")
        with pytest.raises(ValueError, match="direction"):
            Tolerance(direction="sideways")


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

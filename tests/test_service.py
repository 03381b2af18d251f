"""Orchestrator + API behaviours around failure and concurrency edges.

The bitwise checkpoint/resume contract lives in ``tests/test_checkpoint.py``
and the end-to-end kill/resume gate in ``benchmarks/service_smoke.py``;
this module pins down the service-layer edges: register-only submission,
corrupt-checkpoint handling, duplicate-execution guards, and the API's
error envelope.
"""

import json

import pytest

from repro.analysis.runner import RunSpec
from repro.service.api import ServiceAPI
from repro.service.checkpoint import CHECKPOINT_FORMAT_VERSION
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


class TestRegisterOnlySubmit:
    def test_enqueue_false_leaves_the_job_queued(self, tmp_path):
        """The `jobs submit` (no --run) path must not execute in-process."""
        service = ExperimentService(tmp_path)
        record = service.submit(tiny_spec(), enqueue=False)
        assert record.state == "queued"
        assert service._pool is None  # no worker thread ever started
        assert service.get(record.id).state == "queued"
        assert service.result(record.id) is None

    def test_registered_job_runs_later(self, tmp_path):
        service = ExperimentService(tmp_path)
        record = service.submit(tiny_spec(), enqueue=False)
        finished = service.run_job(record.id)
        assert finished.state == "done"
        assert service.result(record.id) is not None


class TestCorruptCheckpoint:
    def test_unloadable_checkpoint_marks_the_job_failed(self, tmp_path):
        """store.load() failures must surface as a failed record, not a
        silent exception inside a pool future."""
        service = ExperimentService(tmp_path)
        record = service.submit(tiny_spec(), enqueue=False)
        checkpoint_dir = service.job_dir(record.id) / "checkpoint"
        checkpoint_dir.mkdir(parents=True)
        (checkpoint_dir / "manifest.json").write_text(
            json.dumps({"format_version": CHECKPOINT_FORMAT_VERSION + 1})
        )
        finished = service.run_job(record.id)
        assert finished.state == "failed"
        assert "unsupported" in finished.error
        assert service.get(record.id).state == "failed"


class TestDuplicateExecutionGuard:
    def test_run_job_skips_a_job_already_executing_here(self, tmp_path):
        service = ExperimentService(tmp_path)
        record = service.submit(tiny_spec(), enqueue=False)
        # Simulate another worker mid-claim of the same job.
        service._running.add(record.id)
        skipped = service.run_job(record.id)
        assert skipped.state == "queued"  # untouched: no second execution
        service._running.discard(record.id)
        assert service.run_job(record.id).state == "done"


class TestAPIErrorEnvelope:
    @pytest.fixture
    def api(self, tmp_path):
        return ServiceAPI(ExperimentService(tmp_path))

    def test_unexpected_exception_returns_json_500(self, api, monkeypatch, capsys):
        def boom():
            raise RuntimeError("exploded in the job store")

        monkeypatch.setattr(api.service, "list_jobs", boom)
        status, payload = api.handle("GET", "/jobs", None)
        assert status == 500
        assert "exploded in the job store" in payload["error"]
        assert "RuntimeError" in capsys.readouterr().err  # logged server-side

    def test_bad_submit_payload_is_a_400(self, api):
        status, payload = api.handle("POST", "/jobs", {"nonsense": True})
        assert status == 400
        assert "spec" in payload["error"]

    def test_spec_backend_field_is_a_400_naming_it(self, api):
        """The removed field is refused like any unknown one, at either spelling."""
        for body in (
            {"spec": {"policy": "online", "backend": "fleet"}},
            {"scenario": "paper-baseline", "backend": "loop"},
        ):
            status, payload = api.handle("POST", "/jobs", body)
            assert status == 400
            assert "backend" in payload["error"]
        assert api.service.list_jobs() == []

    def test_unknown_job_is_a_404(self, api):
        status, payload = api.handle("GET", "/jobs/deadbeef", None)
        assert status == 404
        assert "deadbeef" in payload["error"]

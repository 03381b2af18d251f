"""Orchestrator + API behaviours around failure and concurrency edges.

The bitwise checkpoint/resume contract lives in ``tests/test_checkpoint.py``;
this module pins down the service end to end and at its edges: a
``repro-sim serve`` process killed with ``SIGKILL`` and resumed by
``repro-sim jobs resume`` in a fresh process (bitwise equal to
``run_spec``), register-only submission, corrupt-checkpoint handling,
duplicate-execution guards, submit-time validation (fuzzed: a request is
refused with a 4xx, never a 500), and the API's error envelope.
"""

import dataclasses
import json
import math
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.runner import RunSpec, run_spec, summarize_result
from repro.fl.server import AsyncUpdateRule
from repro.service.api import ServiceAPI
from repro.service.checkpoint import CHECKPOINT_FORMAT_VERSION, CheckpointStore
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.jobs import ExperimentService
from repro.sim.config import SimulationConfig

from oracle import retained_slots

REPO = Path(__file__).resolve().parents[1]

#: RunSummary fields that report wall-clock, not simulation state.
VOLATILE_SUMMARY_KEYS = ("wall_time_s", "timing_shares", "from_cache")


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


#: Any JSON value a client could send (NaN and infinities included).
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


#: Config fields holding containers, where a wrong shape hides: drawn as
#: often as every other field together.
_STRUCTURED_FIELDS = (
    "device_mix", "device_names", "app_weights", "hidden_dims", "user_arrivals",
    "user_battery_capacity_j", "user_charge_rate_w", "user_data_alpha",
)


def _fuzz_config():
    """Config overrides: real field names, hostile or plausible values."""
    fields = st.one_of(
        st.sampled_from([f.name for f in dataclasses.fields(SimulationConfig)]),
        st.sampled_from(_STRUCTURED_FIELDS),
    )
    devices = st.sampled_from(["pixel2", "nexus6", "hikey970"])
    values = st.one_of(
        st.integers(1, 12) | st.sampled_from(["pixel2", "replace"]),
        st.dictionaries(devices, st.floats(), min_size=1, max_size=2),
        st.lists(devices, min_size=1, max_size=6),
        st.lists(st.one_of(devices, st.floats(), st.none()), max_size=6),
        st.lists(st.fixed_dictionaries({"kind": st.sampled_from(
            ["bernoulli", "diurnal", "trace", "x"])}, optional={
                "probability": _json_values, "slots": _json_values,
                "period_s": _json_values, "phase_s": _json_values}), max_size=6),
        _json_values,
    )
    return st.dictionaries(fields, values, max_size=2)


#: Values no count may take.
_NOT_INTEGERS = st.floats() | st.booleans() | st.text(max_size=3)


class TestSubmitValidation:
    """A spec that can only fail at run time is refused at ``POST /jobs``."""

    #: JSON bodies (``NaN`` and ``1e400`` are what a client can send).
    REFUSED = {
        "nan-device-mix": '{"spec": {"policy": "online", "config": '
                          '{"device_mix": {"pixel2": NaN}}}}',
        "infinite-horizon": '{"spec": {"policy": "online", "config": '
                            '{"total_slots": 1e400}}}',
        "nan-slot-seconds": '{"spec": {"policy": "online", "config": '
                            '{"slot_seconds": NaN}}}',
        "infinite-battery": '{"spec": {"policy": "online", "config": '
                            '{"battery_capacity_j": 1e400}}}',
        "unknown-async-rule": '{"spec": {"policy": "online", "config": '
                              '{"async_rule": "bogus"}}}',
        "non-catalog-device-names": '{"spec": {"policy": "online", "config": '
                                    '{"num_users": 5, "device_names": [1, 2, 3, 4, 5]}}}',
        "non-integer-shards": '{"scenario": "paper-baseline", "shards": "x"}',
        "nan-learning-rate": '{"spec": {"policy": "online", "config": '
                             '{"learning_rate": NaN}}}',
        "momentum-of-one": '{"spec": {"policy": "online", "config": '
                           '{"momentum": 1.0}}}',
        "zero-batch-size": '{"spec": {"policy": "online", "config": '
                           '{"batch_size": 0}}}',
        "nan-diurnal-phase": '{"spec": {"policy": "online", "config": {"num_users": 1, '
                             '"user_arrivals": [{"kind": "diurnal", "phase_s": NaN}]}}}',
        "infinite-diurnal-period": '{"spec": {"policy": "online", "config": {"num_users": 1, '
                                   '"user_arrivals": [{"kind": "diurnal", "period_s": 1e400}]}}}',
        "fractional-trace-slot": '{"spec": {"policy": "online", "config": {"num_users": 1, '
                                 '"user_arrivals": [{"kind": "trace", "slots": [1.5, 2]}]}}}',
        "zero-hidden-width": '{"spec": {"policy": "online", "config": {"hidden_dims": [0]}}}',
        "fractional-hidden-width": '{"spec": {"policy": "online", "config": '
                                   '{"hidden_dims": [2.5]}}}',
        "string-hidden-width": '{"spec": {"policy": "online", "config": {"hidden_dims": ["8"]}}}',
        "zero-feature-dim": '{"spec": {"policy": "online", "config": {"feature_dim": 0}}}',
        "one-class": '{"spec": {"policy": "online", "config": {"num_classes": 1}}}',
        "no-test-samples": '{"spec": {"policy": "online", "config": {"num_test_samples": 0}}}',
        "no-clusters": '{"spec": {"policy": "online", "config": {"clusters_per_class": 0}}}',
        "fewer-samples-than-users": '{"spec": {"policy": "online", "config": '
                                    '{"num_users": 25, "num_train_samples": 3}}}',
        "fractional-eval-interval": '{"spec": {"policy": "online", "config": '
                                    '{"eval_interval_slots": 2.5}}}',
    }

    @pytest.fixture
    def api(self, tmp_path):
        service = ExperimentService(tmp_path)
        service._enqueue = lambda job_id: None  # accepted jobs never run here
        return ServiceAPI(service)

    @pytest.mark.parametrize("body", sorted(REFUSED))
    def test_unrunnable_spec_is_a_400(self, api, body):
        status, payload = api.handle("POST", "/jobs", json.loads(self.REFUSED[body]))
        assert status == 400, payload
        assert api.service.list_jobs() == []

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(knob=st.one_of(
        st.tuples(st.just("learning_rate"),
                  st.floats(max_value=0.0) | st.sampled_from([float("nan"), float("inf")])),
        st.tuples(st.just("momentum"),
                  st.floats(max_value=-1e-300) | st.floats(min_value=1.0)
                  | st.just(float("nan"))),
        st.tuples(st.sampled_from(["batch_size", "local_epochs"]),
                  st.integers(-10**6, 0) | st.floats() | st.text(max_size=3)),
        st.tuples(st.sampled_from(["noise_std", "class_separation"]),
                  st.floats(max_value=-1e-300) | st.sampled_from([float("nan"), float("inf")])),
        st.tuples(st.just("label_noise"),
                  st.floats(max_value=-1e-300) | st.floats(min_value=1.0)
                  | st.just(float("nan"))),
        st.tuples(st.just("mixing_alpha"),
                  st.floats(max_value=0.0) | st.floats(min_value=1.0, exclude_min=True)
                  | st.just(float("nan"))),
        # The model's and the synthetic task's shapes: no integer (a bool is
        # none), or below the least.
        st.one_of(
            st.tuples(st.sampled_from(["feature_dim", "num_test_samples", "clusters_per_class"]),
                      st.integers(-10**6, 0) | _NOT_INTEGERS),
            st.tuples(st.just("num_classes"), st.integers(-10**6, 1) | _NOT_INTEGERS),
            st.tuples(st.just("hidden_dims"),
                      st.tuples(st.lists(st.integers(1, 64), max_size=2),
                                st.integers(-10**6, 0) | _NOT_INTEGERS).map(
                          lambda drawn: drawn[0] + [drawn[1]])),
        ),
    ))
    def test_hostile_training_knobs_are_400s(self, api, knob):
        """The local round's knobs (also the stacked round's grouping key),
        the synthetic task's, the model's shapes and the merge weight are
        refused at submission, not at engine build or never."""
        name, value = knob
        body = {"spec": {"policy": "online", "config": {name: value}}}
        status, payload = api.handle("POST", "/jobs", body)
        assert status == 400, (status, payload)
        assert api.service.list_jobs() == []

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spec=st.one_of(
        st.fixed_dictionaries({
            "kind": st.just("diurnal"),
            "period_s": st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf]),
        }),
        st.fixed_dictionaries({
            "kind": st.just("diurnal"),
            "phase_s": st.sampled_from([math.nan, math.inf, -math.inf]),
        }),
        st.fixed_dictionaries({
            "kind": st.just("trace"),
            "slots": st.tuples(st.lists(st.integers(0, 99), max_size=3),
                               st.sampled_from([0.5, 2.0, 1e400])).map(
                lambda drawn: drawn[0] + [drawn[1]]),
        }),
    ), user=st.integers(0, 2))
    def test_hostile_arrival_specs_are_400s(self, api, spec, user):
        """A spec that would give NaN probabilities (the cohort never
        launches) or truncate a trace slot is refused, naming its user."""
        specs = [{"kind": "bernoulli", "probability": 0.01}] * 3
        specs[user] = spec
        body = {"spec": {"policy": "online",
                         "config": {"num_users": 3, "user_arrivals": specs}}}
        status, payload = api.handle("POST", "/jobs", body)
        assert status == 400, (status, payload)
        assert f"user_arrivals[{user}]" in payload["error"]
        assert api.service.list_jobs() == []

    def test_unknown_trace_level_and_policy_are_400s(self, api):
        for body in (
            {"scenario": "paper-baseline", "trace_level": "verbose"},
            {"spec": {"policy": "greedy"}},
            {"spec": {"policy": "online", "policy_kwargs": {"nope": 1}}},
        ):
            assert api.handle("POST", "/jobs", body)[0] == 400, body
        assert api.service.list_jobs() == []

    def test_a_fast_forward_field_is_a_400(self, api):
        """The retired switch is refused, not silently dropped."""
        for body in (
            {"spec": {"policy": "online", "fast_forward": False}},
            {"scenario": "paper-baseline", "fast_forward": True},
        ):
            status, payload = api.handle("POST", "/jobs", body)
            assert status == 400, body
            assert "fast_forward" in payload["error"]
        assert api.service.list_jobs() == []

    def test_named_async_rule_is_accepted(self, api):
        status, _ = api.handle("POST", "/jobs", {
            "spec": {"policy": "online", "config": {"async_rule": "replace"}},
        })
        assert status == 202
        assert SimulationConfig(async_rule="replace").async_rule is AsyncUpdateRule.REPLACE

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spec=st.fixed_dictionaries(
        {"policy": st.sampled_from(["online", "offline", "immediate", "sync", "x"]),
         "config": _fuzz_config()},
        optional={
            "policy_kwargs": st.dictionaries(
                st.sampled_from(["v", "staleness_bound", "window_slots"]),
                _json_values, max_size=2),
            "shards": _json_values,
            "trace_level": st.sampled_from(["full", "summary", "off"]) | _json_values,
            "fast_forward": _json_values,
        },
    ))
    def test_fuzzed_spec_is_never_a_500(self, api, spec):
        status, payload = api.handle("POST", "/jobs", {"spec": spec})
        assert status in (202, 400), (status, payload)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=st.one_of(
        st.fixed_dictionaries(
            {"scenario": st.sampled_from(["paper-baseline", "no-such-scenario"])},
            optional={"shards": _json_values, "trace_level": _json_values,
                      "policy": _json_values, "label": _json_values},
        ),
        st.dictionaries(st.text(max_size=8), _json_values, max_size=3),
    ))
    def test_fuzzed_body_is_never_a_500(self, api, body):
        status, payload = api.handle("POST", "/jobs", body)
        assert status in (202, 400, 404), (status, payload)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _repro_sim(*argv: str) -> list:
    return [sys.executable, "-m", "repro.cli", *argv]


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _deterministic(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if k not in VOLATILE_SUMMARY_KEYS}


class TestKillAndResume:
    """``repro-sim serve`` dies mid-job with no shutdown hook; a fresh
    ``repro-sim jobs resume`` finishes the job bitwise."""

    EVERY = 120

    def test_sigkill_after_the_third_snapshot_then_resume_is_bitwise(self, tmp_path):
        spec = RunSpec(policy="online", config=dict(
            num_users=25, total_slots=3_600, app_arrival_prob=0.01, seed=3,
            num_train_samples=1_000, num_test_samples=200, hidden_dims=(32,),
            eval_interval_slots=300, trace_interval_slots=10,
        ))
        reference = json.loads(summarize_result(spec, run_spec(spec)).to_json())

        port = _free_port()
        server = subprocess.Popen(
            _repro_sim("serve", "--root", str(tmp_path), "--port", str(port),
                       "--workers", "1", "--checkpoint-every", str(self.EVERY),
                       "--keep-last", "2"),
            env=_subprocess_env(), cwd=str(REPO),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            client = ServiceClient(f"127.0.0.1:{port}", retry=None)
            deadline = time.monotonic() + 60.0
            while True:
                try:
                    assert client.health()["ok"]
                    break
                except ServiceUnavailable:
                    assert time.monotonic() < deadline, "server never came up"
                    time.sleep(0.05)
            job_id = client.submit({"spec": dataclasses.asdict(spec)})["id"]
            assert job_id == spec.config_hash()
            while True:
                telemetry = client.telemetry(job_id)
                assert telemetry["state"] in ("queued", "running"), telemetry
                if telemetry["slot"] >= 3 * self.EVERY:
                    break
                time.sleep(0.02)
            server.send_signal(signal.SIGKILL)  # no shutdown hook: a machine loss
        finally:
            if server.poll() is None:
                server.kill()
            server.wait(timeout=30)

        store = CheckpointStore(tmp_path / "jobs" / job_id / "checkpoint")
        retained = retained_slots(store)
        assert len(retained) == 2 and retained[-1] >= 3 * self.EVERY
        assert retained[-1] < spec.build_config().total_slots

        resumed = subprocess.run(
            _repro_sim("jobs", "resume", job_id, "--root", str(tmp_path),
                       "--checkpoint-every", str(self.EVERY)),
            env=_subprocess_env(), cwd=str(REPO), capture_output=True,
            text=True, timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr[-2000:]
        result = json.loads((tmp_path / "jobs" / job_id / "result.json").read_text())
        assert _deterministic(result) == _deterministic(reference)

"""Deterministic fault injection and the recovery machinery it exercises.

The chaos contract (docs/faults.md): a seeded :class:`FaultPlan` must make a
run *bumpy*, never *different*.  A sharded run that loses a worker to
SIGKILL, a hung pipe, or a straggler must recover from the supervisor's
in-memory snapshot and finish bitwise-identical to the fault-free run; a
service job whose checkpoint save is corrupted or hits a full disk must
retry from its latest good snapshot and produce the same
:class:`~repro.analysis.runner.RunSummary` a clean job produces.

Layered here:

* plan/injector semantics — seeded generation, JSON round-trips, one-shot
  consumption, replay-window masking (:meth:`consume_engine_through`);
* supervised engine recovery — kill / hang / straggle / degrade, each
  compared ``==`` against the fault-free observables, plus the
  unsupervised error surfaces (:class:`ShardDied` / :class:`ShardTimeout`);
* checkpoint-store faults — save-time verification, ENOSPC, retention
  rotation, on-disk corruption detected at load;
* service self-healing — retry-from-checkpoint to a bitwise-equal result,
  poison-job quarantine, and the quarantine-clearing ``resume`` path;
* the HTTP client — bounded connect, retry-then-:class:`ServiceUnavailable`
  against a dead server, and a live round-trip through :class:`ServiceAPI`.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.analysis.runner import RunSpec
from repro.core.online import OnlinePolicy
from repro.faults import (
    ENGINE_FAULT_KINDS,
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    poll_intervals,
)
from repro.scenarios import compile_scenario, get_scenario
from repro.service.api import ServiceAPI
from repro.service.checkpoint import CheckpointError, CheckpointStore
from repro.service.client import ServiceClient, ServiceError, ServiceUnavailable
from repro.service.jobs import ExperimentService
from repro.sim.config import SimulationConfig
from repro.sim.shard import ShardDied, ShardTimeout, ShardedEngine

# ---------------------------------------------------------------------------
# plan + injector semantics
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_generate_is_seed_deterministic(self):
        a = FaultPlan.generate(seed=11, total_slots=200, shards=4)
        b = FaultPlan.generate(seed=11, total_slots=200, shards=4)
        assert a.to_dict() == b.to_dict()
        assert FaultPlan.generate(seed=12, total_slots=200, shards=4).to_dict() != a.to_dict()

    def test_generate_lands_mid_horizon_with_valid_targets(self):
        plan = FaultPlan.generate(seed=5, total_slots=100, shards=3, num_events=20)
        assert len(plan.events) == 20
        for event in plan.events:
            assert event.kind in FAULT_KINDS
            assert 10 <= event.at < 90
            if event.kind in ENGINE_FAULT_KINDS:
                assert event.shard is not None and 0 <= event.shard < 3
            else:
                assert event.shard is None

    def test_json_round_trip(self):
        plan = FaultPlan.generate(seed=7, total_slots=60, shards=2)
        payload = json.loads(json.dumps(plan.to_dict()))
        assert FaultPlan.from_dict(payload).to_dict() == plan.to_dict()

    def test_events_are_canonically_ordered(self):
        plan = FaultPlan(events=[
            FaultEvent(kind="kill_shard", at=30, shard=1),
            FaultEvent(kind="disk_full", at=5),
            FaultEvent(kind="kill_shard", at=30, shard=0),
        ])
        assert [(e.at, e.shard) for e in plan.events] == [(5, None), (30, 0), (30, 1)]

    def test_event_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(kind="meteor_strike", at=3, shard=0)
        with pytest.raises(ValueError, match="target shard"):
            FaultEvent(kind="kill_shard", at=3)
        with pytest.raises(ValueError, match="non-negative"):
            FaultEvent(kind="disk_full", at=-1)


class TestFaultInjector:
    def test_worker_events_filter_by_shard_and_kind(self):
        injector = FaultInjector(FaultPlan(events=[
            FaultEvent(kind="kill_shard", at=10, shard=0),
            FaultEvent(kind="slow_shard", at=12, shard=1, delay_s=0.01),
            FaultEvent(kind="corrupt_checkpoint", at=15),
        ]))
        kinds = [e["kind"] for e in injector.worker_events(0)]
        assert kinds == ["kill_shard"]  # store events never ship to workers
        assert [e["kind"] for e in injector.worker_events(1)] == ["slow_shard"]

    def test_consume_engine_through_masks_the_replay_window(self):
        injector = FaultInjector(FaultPlan(events=[
            FaultEvent(kind="kill_shard", at=10, shard=0),
            FaultEvent(kind="drop_message", at=40, shard=0),
        ]))
        consumed = injector.consume_engine_through(25)
        assert [e.at for e in consumed] == [10]
        # The replayed window must not re-kill; the later event stays armed.
        assert [e["at"] for e in injector.worker_events(0)] == [40]
        assert [e.at for e in injector.fired_events()] == [10]
        assert [e.at for e in injector.pending_events()] == [40]

    def test_store_events_fire_exactly_once(self):
        injector = FaultInjector(FaultPlan(events=[
            FaultEvent(kind="corrupt_checkpoint", at=15),
        ]))
        assert injector.on_checkpoint_save(10) is None  # not armed yet
        assert injector.on_checkpoint_save(20) == "corrupt_checkpoint"
        assert injector.on_checkpoint_save(30) is None  # consumed


class TestRetryPolicy:
    def test_delays_grow_geometrically_and_cap(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.1, factor=2.0, cap_s=0.35)
        assert [policy.delay_s(n) for n in (1, 2, 3, 4)] == [0.1, 0.2, 0.35, 0.35]

    def test_attempt_budget_boundary(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(2) and not policy.should_retry(3)
        assert not RetryPolicy(max_attempts=1).should_retry(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=2).delay_s(0)

    def test_poll_intervals_back_off_to_the_cap(self):
        gen = poll_intervals(first_s=0.001, factor=4.0, cap_s=0.01)
        drawn = [next(gen) for _ in range(4)]
        assert drawn == [0.001, 0.004, 0.01, 0.01]


# ---------------------------------------------------------------------------
# supervised engine recovery (bitwise vs fault-free)
# ---------------------------------------------------------------------------


def _chaos_overrides() -> dict:
    """paper-baseline, shrunk to six users and 60 slots."""
    config = dict(compile_scenario(get_scenario("paper-baseline")).overrides)
    config.update(
        num_users=6,
        total_slots=60,
        seed=7,
        num_train_samples=120,
        num_test_samples=60,
        hidden_dims=(8,),
        eval_interval_slots=20,
        trace_interval_slots=10,
    )
    return config


def _chaos_config() -> SimulationConfig:
    return SimulationConfig(**_chaos_overrides())


def _chaos_run(plan=None, shards=2, degrade=False, max_respawns=3, ipc_timeout_s=5.0):
    engine = ShardedEngine(
        _chaos_config(),
        OnlinePolicy(v=4000.0),
        shards=shards,
        fault_injector=FaultInjector(plan) if plan is not None else None,
        recovery_every_slots=15,
        ipc_timeout_s=ipc_timeout_s,
        max_respawns=max_respawns,
        degrade_on_failure=degrade,
    )
    return engine.run()


def _engine_observables(result) -> dict:
    config = _chaos_config()
    return {
        "energy_j": result.total_energy_j(),
        "accuracies": tuple(result.accuracy.accuracies()),
        "accuracy_times": tuple(result.accuracy.times()),
        "num_updates": result.num_updates,
        "decisions": dict(result.trace.decisions),
        "queue_history": tuple(result.queue_history),
        "virtual_queue_history": tuple(result.virtual_queue_history),
        "comm_bytes_mb": result.comm_bytes_mb,
        "comm_failures": result.comm_failures,
        "battery_soc": tuple(result.final_battery_soc),
        "user_gaps": tuple(
            tuple(result.trace.user_gap_trace(u)) for u in range(config.num_users)
        ),
    }


@pytest.fixture(scope="module")
def fault_free():
    """Observables of the fault-free 2-shard run every chaos run must match."""
    return _engine_observables(_chaos_run())


def _assert_bitwise(result, fault_free):
    observed = _engine_observables(result)
    mismatched = [key for key in fault_free if observed[key] != fault_free[key]]
    assert not mismatched, f"recovered run diverged on {mismatched}"


class TestSupervisedRecovery:
    def test_shard_sigkill_mid_run_recovers_bitwise(self, fault_free):
        plan = FaultPlan(events=[FaultEvent(kind="kill_shard", at=25, shard=1)])
        _assert_bitwise(_chaos_run(plan), fault_free)

    def test_two_kills_across_shards_recover_bitwise(self, fault_free):
        plan = FaultPlan(events=[
            FaultEvent(kind="kill_shard", at=10, shard=0),
            FaultEvent(kind="kill_shard", at=40, shard=1),
        ])
        _assert_bitwise(_chaos_run(plan), fault_free)

    def test_kill_before_first_recovery_checkpoint(self, fault_free):
        # Slot 1 precedes the first recovery snapshot cadence; the eager
        # pre-loop snapshot must cover it.
        plan = FaultPlan(events=[FaultEvent(kind="kill_shard", at=1, shard=0)])
        _assert_bitwise(_chaos_run(plan), fault_free)

    def test_hung_shard_times_out_and_recovers_bitwise(self, fault_free):
        plan = FaultPlan(events=[FaultEvent(kind="drop_message", at=30, shard=0)])
        _assert_bitwise(_chaos_run(plan, ipc_timeout_s=2.0), fault_free)

    def test_degrade_to_fewer_shards_stays_bitwise(self, fault_free):
        # 3 shards, shard 0 dies, the survivor set reshards to 2: the
        # shard-count-invariance contract makes the degraded layout safe.
        plan = FaultPlan(events=[FaultEvent(kind="kill_shard", at=25, shard=0)])
        _assert_bitwise(_chaos_run(plan, shards=3, degrade=True), fault_free)

    def test_benign_delays_do_not_change_results(self, fault_free):
        plan = FaultPlan(events=[
            FaultEvent(kind="slow_shard", at=20, shard=1, delay_s=0.01, span=3),
            FaultEvent(kind="delay_ipc", at=28, shard=0, delay_s=0.01),
        ])
        _assert_bitwise(_chaos_run(plan), fault_free)

    def test_unsupervised_kill_raises_shard_died(self):
        plan = FaultPlan(events=[FaultEvent(kind="kill_shard", at=25, shard=1)])
        with pytest.raises(ShardDied):
            _chaos_run(plan, max_respawns=0)


def _own_shm_segments():
    """Names of this process's live mailbox segments in /dev/shm."""
    import glob
    import os

    from repro.sim.shmplane import SEGMENT_PREFIX

    return sorted(
        glob.glob(f"/dev/shm/{SEGMENT_PREFIX}_{os.getpid()}_*")
    )


class TestShmHygiene:
    """Every fault path must unlink its shared-memory mailboxes.

    Segment names embed the coordinator pid, so the checks are immune to
    leftovers from unrelated processes.
    """

    def test_sigkill_recovery_leaks_no_segments(self, fault_free):
        plan = FaultPlan(events=[
            FaultEvent(kind="kill_shard", at=10, shard=0),
            FaultEvent(kind="kill_shard", at=40, shard=1),
        ])
        result = _chaos_run(plan)
        assert _own_shm_segments() == []
        _assert_bitwise(result, fault_free)

    def test_degraded_reshard_leaks_no_segments(self, fault_free):
        plan = FaultPlan(events=[FaultEvent(kind="kill_shard", at=25, shard=0)])
        result = _chaos_run(plan, shards=3, degrade=True)
        assert _own_shm_segments() == []
        _assert_bitwise(result, fault_free)

    def test_unsupervised_death_leaks_no_segments(self):
        plan = FaultPlan(events=[FaultEvent(kind="kill_shard", at=25, shard=1)])
        with pytest.raises(ShardDied):
            _chaos_run(plan, max_respawns=0)
        assert _own_shm_segments() == []

    def test_unsupervised_hang_raises_shard_timeout(self):
        plan = FaultPlan(events=[FaultEvent(kind="drop_message", at=25, shard=0)])
        with pytest.raises(ShardTimeout):
            _chaos_run(plan, max_respawns=0, ipc_timeout_s=1.0)


# ---------------------------------------------------------------------------
# checkpoint-store faults, retention, and service self-healing
# ---------------------------------------------------------------------------


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


#: Deterministic RunSummary fields; wall-clock reporting is excluded.
_VOLATILE_SUMMARY_KEYS = ("wall_time_s", "timing_shares", "from_cache")


def _summary(service: ExperimentService, job_id: str) -> dict:
    payload = dict(service.result(job_id))
    for key in _VOLATILE_SUMMARY_KEYS:
        payload.pop(key, None)
    return payload


@pytest.fixture(scope="module")
def clean_summary(tmp_path_factory):
    """The fault-free RunSummary every self-healed job must reproduce."""
    service = ExperimentService(tmp_path_factory.mktemp("clean"), checkpoint_every=10)
    record = service.submit(tiny_spec(), enqueue=False)
    assert service.run_job(record.id).state == "done"
    return _summary(service, record.id)


#: Backoff long enough that its timers never fire inside a test; the tests
#: drive retries synchronously via run_job to stay deterministic.
_MANUAL_RETRY = RetryPolicy(max_attempts=3, base_delay_s=60.0, cap_s=60.0)


def _settled(service: ExperimentService, job_id: str, timeout_s: float = 120.0):
    """The job's record once no worker holds it and it has left ``queued``.

    An asynchronous ``resume`` hands the job to the worker pool; a test that
    then called ``run_job`` itself would race that worker for the claim.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        record = service.get(job_id)
        if record.state not in ("queued", "running") and (
            job_id not in service.health()["running"]
        ):
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} still {service.get(job_id).state}")


class TestServiceSelfHealing:
    def test_corrupt_save_fails_then_retry_resumes_bitwise(self, tmp_path, clean_summary):
        # checkpoint_every=10 → good snapshot at slot 10, corrupted save at
        # slot 20; the retry must resume from slot 10, not from scratch.
        plan = FaultPlan(events=[FaultEvent(kind="corrupt_checkpoint", at=15)])
        service = ExperimentService(
            tmp_path, checkpoint_every=10, retry=_MANUAL_RETRY, fault_plan=plan
        )
        record = service.submit(tiny_spec(), enqueue=False)
        failed = service.run_job(record.id)
        assert failed.state == "failed"
        assert failed.attempts == 1
        assert "CheckpointError" in failed.error

        store = CheckpointStore(service.job_dir(record.id) / "checkpoint")
        assert store.load().slot == 10  # the corrupt save never published

        healed = service.run_job(record.id)
        assert healed.state == "done"
        assert _summary(service, record.id) == clean_summary
        service.shutdown()

    def test_disk_full_fails_without_publishing_then_recovers(self, tmp_path, clean_summary):
        plan = FaultPlan(events=[FaultEvent(kind="disk_full", at=1)])
        service = ExperimentService(
            tmp_path, checkpoint_every=10, retry=_MANUAL_RETRY, fault_plan=plan
        )
        record = service.submit(tiny_spec(), enqueue=False)
        failed = service.run_job(record.id)
        assert failed.state == "failed"
        assert "disk_full" in failed.error
        # ENOSPC hit before the manifest flip: no snapshot was published.
        store = CheckpointStore(service.job_dir(record.id) / "checkpoint")
        assert not store.exists()

        assert service.run_job(record.id).state == "done"
        assert _summary(service, record.id) == clean_summary
        service.shutdown()

    def test_poison_job_quarantines_and_resume_clears_it(self, tmp_path, clean_summary):
        # Three distinct corrupt events: one per save attempt.  A two-attempt
        # budget quarantines after the second failure; resume() re-arms the
        # budget, eats the third event, and the final retry completes.
        plan = FaultPlan(events=[
            FaultEvent(kind="corrupt_checkpoint", at=1),
            FaultEvent(kind="corrupt_checkpoint", at=2),
            FaultEvent(kind="corrupt_checkpoint", at=3),
        ])
        retry = RetryPolicy(max_attempts=2, base_delay_s=60.0, cap_s=60.0)
        service = ExperimentService(
            tmp_path, checkpoint_every=10, retry=retry, fault_plan=plan
        )
        record = service.submit(tiny_spec(), enqueue=False)
        assert service.run_job(record.id).state == "failed"
        quarantined = service.run_job(record.id)
        assert quarantined.state == "quarantined"
        assert quarantined.attempts == 2
        # A quarantined job refuses to execute until explicitly resumed.
        assert service.run_job(record.id).state == "quarantined"

        resumed = service.resume(record.id)
        assert resumed.state == "queued" and resumed.attempts == 0
        # The worker pool runs the resumed job; it eats the third corrupt
        # event and fails within the re-armed budget.
        refailed = _settled(service, record.id)
        assert refailed.state == "failed"  # third corrupt event
        assert refailed.attempts == 1
        assert service.run_job(record.id).state == "done"
        assert _summary(service, record.id) == clean_summary
        service.shutdown()

    def test_async_retry_timer_heals_without_intervention(self, tmp_path, clean_summary):
        plan = FaultPlan(events=[FaultEvent(kind="corrupt_checkpoint", at=15)])
        retry = RetryPolicy(max_attempts=3, base_delay_s=0.05, cap_s=0.2)
        service = ExperimentService(
            tmp_path, workers=1, checkpoint_every=10, retry=retry, fault_plan=plan
        )
        record = service.submit(tiny_spec())
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            state = service.get(record.id).state
            if state in ("done", "quarantined"):
                break
            time.sleep(0.05)
        final = service.get(record.id)
        assert final.state == "done"
        assert final.attempts == 1  # exactly one failure, healed by the timer
        assert _summary(service, record.id) == clean_summary
        health = service.health()
        assert health["jobs"].get("done") == 1
        service.shutdown()


class TestChaosJob:
    """One service job on two process shards under a plan with a shard
    SIGKILL and a corrupted checkpoint save, both after the third snapshot
    (``keep_last=2``, so recovery reads vectors from packs earlier snapshots
    wrote): the supervisor respawns the shard, the retry timer resumes from
    the last good snapshot, and the job ends ``done`` with the fault-free
    summary — no operator."""

    def test_shard_kill_and_corrupt_save_self_heal_bitwise(self, tmp_path):
        spec = RunSpec(policy="online", config=_chaos_overrides(), shards=2)
        reference = ExperimentService(
            tmp_path / "reference", checkpoint_every=10, keep_last=2
        )
        record = reference.submit(spec, enqueue=False)
        assert reference.run_job(record.id).state == "done"

        plan = FaultPlan(events=[
            FaultEvent(kind="kill_shard", at=35, shard=1),
            FaultEvent(kind="corrupt_checkpoint", at=45),
        ])
        chaos = ExperimentService(
            tmp_path / "chaos", workers=1, checkpoint_every=10, keep_last=2,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.05, cap_s=0.2),
            fault_plan=plan,
        )
        try:
            chaos.submit(spec)
            deadline = time.monotonic() + 120.0
            while chaos.get(record.id).state not in ("done", "quarantined"):
                assert time.monotonic() < deadline, chaos.get(record.id)
                time.sleep(0.05)
            final = chaos.get(record.id)
            assert final.state == "done", final.error
            assert final.attempts == 1  # the corrupt save; the kill healed in-run
            assert chaos._injector_for(record.id).fired_events() == plan.events
            assert _summary(chaos, record.id) == _summary(reference, record.id)
        finally:
            chaos.shutdown()


class TestRetention:
    def test_keep_last_plus_milestones(self, tmp_path):
        service = ExperimentService(
            tmp_path, checkpoint_every=10, keep_last=2, keep_every_slots=20
        )
        record = service.submit(tiny_spec(), enqueue=False)
        assert service.run_job(record.id).state == "done"
        store = CheckpointStore(
            service.job_dir(record.id) / "checkpoint",
            keep_last=2,
            keep_every_slots=20,
        )
        retained = store.retained_slots()
        # Saves land at slots 10/20/30 (the final slot completes the run
        # without another periodic save): the newest two survive keep_last
        # and the 20th-slot milestone survives keep_every_slots.
        assert retained == [20, 30]
        assert store.load().slot == 30
        # The slot-10 snapshot is gone from disk, not just the manifest: what
        # is left of its directory is at most the vector pack a retained
        # snapshot still references.
        manifest = store._read_manifest()
        snapshots = {entry["dir"] for entry in manifest["retained"]}
        referenced = {ref for entry in manifest["retained"] for ref in entry["refs"]}
        for path in store.root.glob("snapshot-*"):
            if path.name not in snapshots:
                assert path.name in referenced
                assert [file.name for file in path.iterdir()] == [store.PACK]

    def test_default_keeps_only_the_latest(self, tmp_path):
        service = ExperimentService(tmp_path, checkpoint_every=10)
        record = service.submit(tiny_spec(), enqueue=False)
        assert service.run_job(record.id).state == "done"
        store = CheckpointStore(service.job_dir(record.id) / "checkpoint")
        assert store.retained_slots() == [30]

    def test_on_disk_corruption_is_detected_at_load(self, tmp_path):
        service = ExperimentService(tmp_path, checkpoint_every=10)
        record = service.submit(tiny_spec(), enqueue=False)
        assert service.run_job(record.id).state == "done"
        store = CheckpointStore(service.job_dir(record.id) / "checkpoint")
        snapshot = store.root / store._read_manifest()["latest"]
        payload = (snapshot / "coordinator.pkl").read_bytes()
        (snapshot / "coordinator.pkl").write_bytes(b"\x00" * 16 + payload[16:])
        with pytest.raises(CheckpointError, match="corrupt"):
            store.load()


# ---------------------------------------------------------------------------
# HTTP client
# ---------------------------------------------------------------------------


class TestServiceClient:
    def test_url_parsing(self):
        client = ServiceClient("example.test:9000")
        assert (client.host, client.port) == ("example.test", 9000)
        assert ServiceClient("http://example.test").port == 8765
        with pytest.raises(ValueError, match="http only"):
            ServiceClient("https://example.test")
        with pytest.raises(ValueError, match="no host"):
            ServiceClient("http://")

    def test_dead_server_raises_service_unavailable(self):
        client = ServiceClient(
            "127.0.0.1:9",  # discard port: nothing listens there
            connect_timeout_s=0.5,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.01, cap_s=0.01),
        )
        with pytest.raises(ServiceUnavailable, match="after 2 attempt"):
            client.health()
        # Mutating requests must not retry: one attempt, then unavailable.
        with pytest.raises(ServiceUnavailable, match="after 1 attempt"):
            client.submit({"spec": {"policy": "online"}})

    def test_live_round_trip(self, tmp_path):
        api = ServiceAPI(ExperimentService(tmp_path, workers=1), port=0)
        api.start()
        try:
            client = ServiceClient(f"127.0.0.1:{api.port}")
            assert client.health()["ok"] is True

            spec = tiny_spec()
            submitted = client.submit(
                {"spec": {"policy": spec.policy, "config": spec.config}}
            )
            job_id = submitted["id"]
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if client.get_job(job_id)["state"] == "done":
                    break
                time.sleep(0.05)
            record = client.get_job(job_id)
            assert record["state"] == "done"
            assert record["result"]["num_updates"] >= 0

            assert [job["id"] for job in client.list_jobs()] == [job_id]
            telemetry = client.telemetry(job_id)
            assert telemetry["slot"] == 40

            with pytest.raises(ServiceError, match="404"):
                client.get_job("deadbeef")
        finally:
            api.stop()

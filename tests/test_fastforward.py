"""Event-horizon fast-forward: kernel building blocks and end-to-end traces.

``tests/test_fleet.py`` holds the full three-way equivalence matrix; this
module covers the fast-forward machinery itself — the exact multi-slot queue
recursions, the arrival event-iterator API, the evaluation cache, the
sparse "overnight" regime where whole stretches of the horizon collapse into
single kernel calls, and certified-idle regions (ready users the policy
keeps idle) against the slot path and the reference loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.offline import OfflinePolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import ImmediatePolicy
from repro.core.queues import TaskQueue, VirtualQueue
from repro.device.apps import ForegroundApp, APP_CATALOG
from repro.service.checkpoint import Checkpointer
from repro.sim.arrivals import ArrivalSchedule
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.shard import FleetShard, ShardedEngine

from oracle import make_engine, run_digest


PHONE_MIX = {"pixel2": 1.0 / 3, "nexus6": 1.0 / 3, "nexus6p": 1.0 / 3}


def _overnight_config(**overrides) -> SimulationConfig:
    """A sparse battery-gated fleet: drains, then idles for the rest of the run."""
    base = dict(
        num_users=12,
        total_slots=2500,
        app_arrival_prob=0.001,
        seed=3,
        num_train_samples=240,
        num_test_samples=100,
        eval_interval_slots=500,
        device_mix=PHONE_MIX,
        battery_capacity_j=900.0,
        battery_charge_rate_w=0.0,
        min_battery_soc=0.2,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestQueueMultiSlotRecursions:
    def test_task_queue_advance_idle_matches_updates(self):
        fast = TaskQueue()
        slow = TaskQueue()
        for queue in (fast, slow):
            queue.update(arrivals=5, services=2)
        fast.advance_idle(7)
        for _ in range(7):
            slow.update(arrivals=0, services=0)
        assert fast.length == slow.length
        assert fast.history() == slow.history()

    def test_task_queue_advance_idle_rejects_negative(self):
        with pytest.raises(ValueError):
            TaskQueue().advance_idle(-1)

    @pytest.mark.parametrize(
        "initial,gap,bound,slots",
        [
            (0.0, 0.3, 1.0, 50),  # stays pinned at zero (fixpoint)
            (10.0, 0.3, 1.0, 50),  # drains to zero, then fixpoint
            (0.0, 2.5, 1.0, 40),  # grows every slot (no fixpoint)
            (4.0, 1.0, 1.0, 25),  # G == Lb exactly
        ],
    )
    def test_virtual_queue_advance_constant_matches_updates(
        self, initial, gap, bound, slots
    ):
        fast = VirtualQueue(bound, initial=initial)
        slow = VirtualQueue(bound, initial=initial)
        values = fast.advance_constant(gap, slots)
        expected = [slow.update(gap) for _ in range(slots)]
        assert values == expected
        assert fast.length == slow.length
        assert fast.history() == slow.history()

    def test_virtual_queue_advance_constant_rejects_bad_args(self):
        queue = VirtualQueue(1.0)
        with pytest.raises(ValueError):
            queue.advance_constant(-0.5, 3)
        with pytest.raises(ValueError):
            queue.advance_constant(0.5, -3)

    @pytest.mark.parametrize("initial", [0.0, 3.7])
    def test_virtual_queue_advance_sequence_matches_updates(self, initial):
        gap_sums = [0.1 * k + 0.013 for k in range(40)]  # crosses Lb = 1.5
        fast = VirtualQueue(1.5, initial=initial)
        slow = VirtualQueue(1.5, initial=initial)
        values = fast.advance_sequence(gap_sums)
        assert values == [slow.update(gap) for gap in gap_sums]
        assert fast.length == slow.length
        assert fast.history() == slow.history()
        assert fast.time_average() == slow.time_average()
        with pytest.raises(ValueError):
            fast.advance_sequence([0.5, -0.1])


class TestArrivalEventIterator:
    def _schedule(self):
        spec = APP_CATALOG["tiktok"]
        arrivals = {
            0: [ForegroundApp(spec=spec, arrival_slot=4, duration_slots=3)],
            1: [
                ForegroundApp(spec=spec, arrival_slot=4, duration_slots=2),
                ForegroundApp(spec=spec, arrival_slot=9, duration_slots=2),
            ],
            2: [],
        }
        return ArrivalSchedule(arrivals)

    def test_launch_slots_sorted_distinct(self):
        assert self._schedule().launch_slots() == [4, 9]

    def test_launch_slots_returns_fresh_copies(self):
        schedule = self._schedule()
        first = schedule.launch_slots()
        first.append(99)
        assert schedule.launch_slots() == [4, 9]


class TestFastForwardEndToEnd:
    def test_flag_validation_and_default(self):
        config = _overnight_config(total_slots=50)
        engine = SimulationEngine(config, ImmediatePolicy())
        assert engine.fast_forward is True
        engine = SimulationEngine(config, ImmediatePolicy(), fast_forward=False)
        assert engine.fast_forward is False

    def test_per_slot_series_covers_every_slot(self):
        """Fast-forwarded slots must still backfill the cumulative series."""
        config = _overnight_config()
        result = SimulationEngine(config, ImmediatePolicy()).run()
        assert len(result.accountant.per_slot_totals()) == config.total_slots
        totals = result.accountant.per_slot_totals()
        assert all(b >= a for a, b in zip(totals, totals[1:]))

    def test_overnight_sparse_identical_to_slot_by_slot(self):
        """The drained-fleet regime exercises the longest quiet regions."""
        config = _overnight_config()
        slow = SimulationEngine(
            config, ImmediatePolicy(), fast_forward=False
        ).run()
        fast = SimulationEngine(
            config, ImmediatePolicy(), fast_forward=True
        ).run()
        assert slow.trace.decisions == fast.trace.decisions
        assert slow.decision_evaluations == fast.decision_evaluations
        assert slow.queue_history == fast.queue_history
        assert slow.virtual_queue_history == fast.virtual_queue_history
        assert slow.total_energy_j() == fast.total_energy_j()
        assert slow.accountant.per_slot_totals() == fast.accountant.per_slot_totals()
        assert slow.trace.slot_samples == fast.trace.slot_samples
        assert slow.trace.update_samples == fast.trace.update_samples
        assert slow.accuracy.accuracies() == fast.accuracy.accuracies()
        assert slow.accuracy.times() == fast.accuracy.times()
        assert slow.final_battery_soc == fast.final_battery_soc
        for user in range(config.num_users):
            assert slow.trace.user_gap_trace(user) == fast.trace.user_gap_trace(user)
            assert slow.accountant.user_breakdown(user) == fast.accountant.user_breakdown(user)

    def test_online_policy_queue_histories_backfilled(self):
        """Quiet regions under the online policy replay both queue recursions."""
        config = _overnight_config(total_slots=1200)
        slow = SimulationEngine(
            config,
            OnlinePolicy(v=0.0, staleness_bound=500.0),
            fast_forward=False,
        ).run()
        fast = SimulationEngine(
            config,
            OnlinePolicy(v=0.0, staleness_bound=500.0),
            fast_forward=True,
        ).run()
        assert len(fast.queue_history) == config.total_slots + 1
        assert slow.queue_history == fast.queue_history
        assert slow.virtual_queue_history == fast.virtual_queue_history

    def test_evaluation_cache_reuses_frozen_model(self):
        """Evaluation ticks inside a quiet region reuse the cached accuracy."""
        config = _overnight_config(total_slots=1600, eval_interval_slots=200)
        engine = SimulationEngine(config, ImmediatePolicy())
        calls = {"n": 0}
        original = engine.eval_model.set_flat_params

        def counting(params):
            calls["n"] += 1
            return original(params)

        engine.eval_model.set_flat_params = counting
        result = engine.run()
        # Interior evals at slots 200..1400 plus the initial and final
        # evaluations = 9 records, but the drained tail reuses the
        # version-keyed cache instead of re-running the forward pass.
        assert len(result.accuracy.accuracies()) == 9
        assert calls["n"] < 9


def _stretch_config(**overrides) -> SimulationConfig:
    """The paper's sparse regime, small: ready users wait long for an app."""
    base = dict(
        num_users=10,
        total_slots=900,
        app_arrival_prob=0.002,
        seed=5,
        num_train_samples=240,
        num_test_samples=100,
        hidden_dims=(8,),
        eval_interval_slots=150,
        trace_interval_slots=7,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _observed(result, policy):
    """Every observable of a run, per-slot series and decision log included."""
    users = range(result.config.num_users)
    return (
        run_digest(result),
        result.trace.slot_samples,
        [result.trace.user_gap_trace(user) for user in users],
        [result.accountant.user_breakdown(user) for user in users],
        result.decision_evaluations,
        result.final_battery_soc,
        getattr(policy, "decision_log", None),
        getattr(policy, "messages_to_server", None),
        getattr(policy, "messages_to_users", None),
    )


def _count_run_slots(monkeypatch):
    calls = []
    original = FleetShard.run_slot

    def counted(self, slot, *args):
        calls.append(slot)
        return original(self, slot, *args)

    monkeypatch.setattr(FleetShard, "run_slot", counted)
    return calls


CERTIFYING_POLICIES = {
    "online": lambda: OnlinePolicy(v=4000.0),
    "online-small-budget": lambda: OnlinePolicy(v=4000.0, staleness_bound=0.05),
    # Energy dominates: users with an app in the foreground wait it out too.
    "online-high-v": lambda: OnlinePolicy(v=1e6),
    "offline-short-window": lambda: OfflinePolicy(window_slots=60),
}


class TestCertifiedIdleRegions:
    """Ready users the policy keeps idle run as one region, bit for bit."""

    @pytest.mark.parametrize("name", sorted(CERTIFYING_POLICIES))
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"include_scheduler_overhead": True},
            {"trace_interval_slots": 1, "include_scheduler_overhead": True},
        ],
        ids=["plain", "overhead", "every-slot-trace"],
    )
    def test_fast_forward_equals_slot_path_and_reference(self, monkeypatch, name, overrides):
        config = _stretch_config(**overrides)
        make = CERTIFYING_POLICIES[name]
        runs = {}
        for label, mode, fast_forward in (
            ("loop", "loop", False),
            ("slots", "fleet", False),
            ("regions", "fleet", True),
        ):
            policy = make()
            calls = _count_run_slots(monkeypatch)
            result = make_engine(mode, config, policy, fast_forward=fast_forward).run()
            runs[label] = (_observed(result, policy), result.accountant.per_slot_totals(), len(calls))
        assert runs["regions"][:2] == runs["slots"][:2] == runs["loop"][:2]
        assert runs["slots"][2] == config.total_slots
        # The region path fired: far fewer slots ran the slot path.
        assert runs["regions"][2] < config.total_slots // 2

    @pytest.mark.parametrize(
        "make", [lambda: OnlinePolicy(v=4000.0), OfflinePolicy], ids=["online", "offline"]
    )
    def test_paper_population(self, monkeypatch, make):
        """The paper's 25 users over one hour at p = 0.001 (model and data
        shrunk): regions fire, and the run equals the slot path bit for bit."""
        config = SimulationConfig(
            num_users=25, total_slots=3_600, app_arrival_prob=0.001, seed=0,
            hidden_dims=(16,), num_train_samples=500, num_test_samples=200,
            eval_interval_slots=600,
        )
        runs = {}
        for fast_forward in (False, True):
            policy = make()
            calls = _count_run_slots(monkeypatch)
            result = SimulationEngine(config, policy, fast_forward=fast_forward).run()
            runs[fast_forward] = (
                _observed(result, policy), result.accountant.per_slot_totals(), len(calls)
            )
        assert runs[True][:2] == runs[False][:2]
        assert runs[False][2] == config.total_slots
        assert runs[True][2] < config.total_slots

    def test_small_budget_flips_a_decision_inside_a_stretch(self):
        """With a tight ``Lb``, ``H(t)`` grows while users wait until one of
        them schedules with no arrival, completion or app event in between."""
        policy = OnlinePolicy(v=4000.0, staleness_bound=0.05)
        result = SimulationEngine(_stretch_config(trace_interval_slots=1), policy).run()
        grown = [
            (a, b)
            for a, b in zip(result.trace.slot_samples, result.trace.slot_samples[1:])
            if b.virtual_queue_length > a.virtual_queue_length > 0.0
        ]
        assert grown  # H > 0 and rising across waiting slots
        baseline = SimulationEngine(
            _stretch_config(trace_interval_slots=1), OnlinePolicy(v=4000.0)
        ).run()
        assert result.trace.decisions != baseline.trace.decisions

    def test_offline_window_boundary_inside_a_stretch(self):
        config = _stretch_config()
        slow = SimulationEngine(config, OfflinePolicy(window_slots=60), fast_forward=False).run()
        fast = SimulationEngine(config, OfflinePolicy(window_slots=60)).run()
        assert _observed(slow, None) == _observed(fast, None)
        assert len(fast.trace.slot_samples) == len(slow.trace.slot_samples)

    def test_ready_user_draining_below_the_gate_mid_stretch(self, monkeypatch):
        """Batteries drain while users wait: a ready user leaves the pool
        mid-stretch (eligibility flips) and the region ends on that slot."""
        config = _stretch_config(
            device_mix=PHONE_MIX,
            battery_capacity_j=600.0,
            battery_charge_rate_w=0.0,
            min_battery_soc=0.2,
            include_scheduler_overhead=True,
        )
        results = {}
        for fast_forward in (False, True):
            policy = OnlinePolicy(v=4000.0)
            calls = _count_run_slots(monkeypatch)
            result = SimulationEngine(config, policy, fast_forward=fast_forward).run()
            results[fast_forward] = (_observed(result, policy), len(calls))
        assert results[True][0] == results[False][0]
        assert results[True][1] < results[False][1]
        assert any(soc < 0.2 for soc in results[True][0][5])  # somebody drained

    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "process"])
    def test_two_shards(self, inline):
        config = _stretch_config(total_slots=600)
        reference_policy = OnlinePolicy(v=4000.0)
        reference = SimulationEngine(config, reference_policy).run()
        policy = OnlinePolicy(v=4000.0)
        sharded = ShardedEngine(config, policy, shards=2, inline=inline).run()
        assert _observed(sharded, policy) == _observed(reference, reference_policy)

    def test_checkpoint_inside_a_stretch_then_resume(self):
        config = _stretch_config()
        full_policy = OnlinePolicy(v=4000.0)
        full = SimulationEngine(config, full_policy).run()
        taken, slot_path = [], []
        SimulationEngine(config, OnlinePolicy(v=4000.0)).run(
            Checkpointer(taken.append, every_slots=37)
        )
        SimulationEngine(config, OnlinePolicy(v=4000.0), fast_forward=False).run(
            Checkpointer(slot_path.append, every_slots=37)
        )
        # Per-user fleet state (waiting counters, batteries, energy) at every
        # boundary, regions or not.
        assert [cp.slot for cp in taken] == [cp.slot for cp in slot_path]
        for fast, slow in zip(taken, slot_path):
            fleet, reference = fast.slices[0]["fleet"], slow.slices[0]["fleet"]
            for key in ("waiting_slots", "temperature_c", "remaining_slots", "battery_charge_j"):
                assert (fleet[key] == reference[key]).all(), (fast.slot, key)
            for key, value in reference["accountant"].items():
                assert np.array_equal(value, fleet["accountant"][key]), (fast.slot, key)
        waiting = [cp for cp in taken if cp.global_ready > 0 and not cp.pending_arrivals]
        assert waiting  # some boundaries fall while ready users wait
        for checkpoint in waiting[:3]:
            engine = SimulationEngine.restore(checkpoint)
            resumed = engine.run()
            assert _observed(resumed, engine.core.policy)[:6] == _observed(full, full_policy)[:6]
            assert engine.core.policy.decision_log == full_policy.decision_log

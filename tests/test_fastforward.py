"""Event-horizon fast-forward: kernel building blocks and end-to-end traces.

``tests/test_fleet.py`` holds the full three-way equivalence matrix; this
module covers the fast-forward machinery itself — the exact multi-slot queue
recursions, the arrival event-iterator API, the evaluation cache, and the
sparse "overnight" regime where whole stretches of the horizon collapse into
single kernel calls.
"""

from __future__ import annotations

import pytest

from repro.core.online import OnlinePolicy
from repro.core.policies import ImmediatePolicy
from repro.core.queues import TaskQueue, VirtualQueue
from repro.device.apps import ForegroundApp, APP_CATALOG
from repro.sim.arrivals import ArrivalSchedule
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine


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

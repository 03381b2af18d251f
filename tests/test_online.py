"""Tests for the Lyapunov online controller and policy (Eq. 21-23, Alg. 2)."""

import pytest

from oracle import decide_one, frozen_evaluate, observation_batch
from repro.core.online import OnlineController, OnlinePolicy
from repro.core.policies import Decision, SlotContext
from repro.core.staleness import gradient_gap


def _context(slot=0, num_arrivals=0, num_ready=0, num_users=5):
    return SlotContext(slot=slot, slot_seconds=1.0, num_arrivals=num_arrivals,
                       num_ready=num_ready, num_training=0, num_users=num_users)


def _decide(controller, observation, q_length, h_length) -> Decision:
    """Eq. (21) for one device through the array rule, held to the frozen
    scalar rule."""
    costs = controller.evaluate_batch(observation_batch([observation]), q_length, h_length)
    decision = Decision.SCHEDULE if costs.best()[0] else Decision.IDLE
    assert decision is frozen_evaluate(controller, observation, q_length, h_length).best()
    return decision


class TestOnlineController:
    def test_zero_v_schedules_whenever_queue_backlogged(self, observation_factory):
        controller = OnlineController(v=0.0)
        obs = observation_factory()
        assert _decide(controller, obs, q_length=1.0, h_length=0.0) is Decision.SCHEDULE

    def test_large_v_idles_with_empty_queues(self, observation_factory):
        controller = OnlineController(v=1e5)
        obs = observation_factory()
        assert _decide(controller, obs, q_length=0.0, h_length=0.0) is Decision.IDLE

    def test_eq22_threshold_no_app(self, observation_factory):
        """Without an app: schedule iff Q >= V * (P_b - P_d) (in kJ per slot)."""
        v = 4000.0
        obs = observation_factory(app_running=False, momentum_norm=0.0)
        controller = OnlineController(v=v, epsilon=0.0)
        threshold = v * (obs.power_training_w - obs.power_idle_w) / 1000.0
        assert _decide(controller, obs, q_length=threshold + 0.01, h_length=0.0) is Decision.SCHEDULE
        assert _decide(controller, obs, q_length=threshold - 0.01, h_length=0.0) is Decision.IDLE

    def test_eq22_threshold_with_app(self, observation_factory):
        """With an app: schedule iff Q >= V * (P_a' - P_a) (in kJ per slot)."""
        v = 4000.0
        obs = observation_factory(app_running=True, momentum_norm=0.0)
        controller = OnlineController(v=v, epsilon=0.0)
        threshold = v * (obs.power_corun_w - obs.power_app_w) / 1000.0
        assert _decide(controller, obs, q_length=threshold + 0.01, h_length=0.0) is Decision.SCHEDULE
        assert _decide(controller, obs, q_length=threshold - 0.01, h_length=0.0) is Decision.IDLE

    def test_corunning_threshold_lower_than_background(self, observation_factory):
        """Co-running needs a shorter queue than background-only execution."""
        v = 4000.0
        controller = OnlineController(v=v, epsilon=0.0)
        no_app = observation_factory(app_running=False, momentum_norm=0.0)
        with_app = observation_factory(app_running=True, momentum_norm=0.0,
                                       power_corun_w=1.8, power_app_w=1.5)
        threshold_no_app = v * (no_app.power_training_w - no_app.power_idle_w) / 1000.0
        threshold_app = v * (with_app.power_corun_w - with_app.power_app_w) / 1000.0
        assert threshold_app < threshold_no_app
        q_between = (threshold_app + threshold_no_app) / 2.0
        assert _decide(controller, with_app, q_between, 0.0) is Decision.SCHEDULE
        assert _decide(controller, no_app, q_between, 0.0) is Decision.IDLE

    def test_eq23_staleness_pressure_forces_scheduling(self, observation_factory):
        """A large accumulated gap with H > 0 pushes the device to schedule."""
        controller = OnlineController(v=1e5, epsilon=0.01)
        obs = observation_factory(app_running=False, momentum_norm=0.5,
                                  estimated_lag=2, current_gap=30.0)
        assert _decide(controller, obs, q_length=0.0, h_length=0.0) is Decision.IDLE
        assert _decide(controller, obs, q_length=0.0, h_length=50.0) is Decision.SCHEDULE

    def test_costs_expose_gap_estimates(self, observation_factory):
        controller = OnlineController(v=1000.0, epsilon=0.2)
        obs = observation_factory(momentum_norm=2.0, estimated_lag=3, current_gap=1.0)
        costs = controller.evaluate_batch(observation_batch([obs]), q_length=1.0, h_length=2.0)
        assert costs.schedule_gap[0] == pytest.approx(
            gradient_gap(2.0, obs.learning_rate, obs.momentum_coeff, 3)
        )
        assert costs.idle_gap[0] == pytest.approx(1.2)
        assert frozen_evaluate(controller, obs, q_length=1.0, h_length=2.0) == tuple(
            column[0] for column in (costs.schedule_cost, costs.idle_cost, costs.schedule_gap, costs.idle_gap)
        )

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            OnlineController(v=-1.0)
        with pytest.raises(ValueError):
            OnlineController(v=1.0, epsilon=-0.1)


class TestOnlinePolicy:
    def test_queue_updates_follow_eq15_eq16(self, observation_factory):
        policy = OnlinePolicy(v=0.0, staleness_bound=10.0)
        context = _context(num_arrivals=4)
        policy.begin_slot(context)
        policy.end_slot(context, num_scheduled=1, gap_sum=12.0)
        assert policy.task_queue.length == pytest.approx(3.0)  # max(0+4-1,0)
        assert policy.virtual_queue.length == pytest.approx(2.0)  # 0+12-10

    def test_decisions_counted_for_overhead(self, observation_factory):
        policy = OnlinePolicy(v=0.0, staleness_bound=100.0)
        policy.begin_slot(_context(num_arrivals=2))
        decide_one(policy, observation_factory(user_id=0))
        decide_one(policy, observation_factory(user_id=1))
        assert policy.decision_cost_evaluations() == 2

    def test_distributed_vs_centralized_same_decisions(self, observation_factory):
        distributed = OnlinePolicy(v=4000.0, staleness_bound=500.0, distributed=True)
        centralized = OnlinePolicy(v=4000.0, staleness_bound=500.0, distributed=False)
        for policy in (distributed, centralized):
            policy.begin_slot(_context(num_arrivals=3))
        observations = [
            observation_factory(user_id=i, app_running=(i % 2 == 0), current_gap=float(i))
            for i in range(6)
        ]
        decisions_d = [decide_one(distributed, o) for o in observations]
        decisions_c = [decide_one(centralized, o) for o in observations]
        assert decisions_d == decisions_c

    def test_distributed_mode_hides_app_status_from_server(self, observation_factory):
        """Algorithm 2: the user sends fewer scalars than the centralized scheme."""
        distributed = OnlinePolicy(v=100.0, staleness_bound=100.0, distributed=True)
        centralized = OnlinePolicy(v=100.0, staleness_bound=100.0, distributed=False)
        for policy in (distributed, centralized):
            policy.begin_slot(_context())
            decide_one(policy, observation_factory())
        assert distributed.messages_to_server <= centralized.messages_to_server

    def test_reset_clears_queues_and_logs(self, observation_factory):
        policy = OnlinePolicy(v=10.0, staleness_bound=50.0)
        context = _context(num_arrivals=3)
        policy.begin_slot(context)
        decide_one(policy, observation_factory())
        policy.end_slot(context, num_scheduled=0, gap_sum=100.0)
        policy.reset()
        assert policy.task_queue.length == 0.0
        assert policy.virtual_queue.length == 0.0
        assert policy.decision_log == []
        assert policy.decision_cost_evaluations() == 0

    def test_queue_histories_exposed(self):
        policy = OnlinePolicy(v=10.0, staleness_bound=50.0)
        context = _context(num_arrivals=2)
        for _ in range(5):
            policy.begin_slot(context)
            policy.end_slot(context, num_scheduled=0, gap_sum=0.0)
        assert len(policy.queue_history()) == 6
        assert policy.mean_queue_length() > 0.0
        assert policy.mean_virtual_queue_length() == 0.0

    def test_higher_v_idles_more(self, observation_factory):
        """With the same moderate backlog, a larger V waits while a small V schedules."""
        low = OnlinePolicy(v=1000.0, staleness_bound=500.0)
        high = OnlinePolicy(v=50000.0, staleness_bound=500.0)
        context = _context(num_arrivals=5)
        for policy in (low, high):
            policy.begin_slot(context)
            policy.end_slot(context, num_scheduled=0, gap_sum=0.0)
            policy.begin_slot(_context(slot=1))
        obs = observation_factory(app_running=False, momentum_norm=0.0)
        assert decide_one(low, obs) is Decision.SCHEDULE
        assert decide_one(high, obs) is Decision.IDLE

"""Tests for the baseline policies and the Theorem 1 trade-off helpers."""

import pytest

from oracle import decide_one, frozen_decide
from repro.core.policies import (
    Aggregation,
    Decision,
    ImmediatePolicy,
    SchedulingPolicy,
    SyncPolicy,
)
from repro.core.tradeoff import (
    SweepPoint,
    TradeoffAnalyzer,
    theorem1_energy_bound,
    theorem1_queue_bound,
)


class TestBaselinePolicies:
    def test_immediate_always_schedules(self, observation_factory):
        policy = ImmediatePolicy()
        for app_running in (True, False):
            observation = observation_factory(app_running=app_running)
            assert decide_one(policy, observation) is Decision.SCHEDULE
            assert frozen_decide(policy, observation) is Decision.SCHEDULE

    def test_immediate_uses_async_aggregation(self):
        assert ImmediatePolicy.aggregation is Aggregation.ASYNC

    def test_sync_always_schedules(self, observation_factory):
        policy = SyncPolicy()
        assert decide_one(policy, observation_factory()) is Decision.SCHEDULE
        assert frozen_decide(policy, observation_factory()) is Decision.SCHEDULE

    def test_sync_uses_sync_aggregation(self):
        assert SyncPolicy.aggregation is Aggregation.SYNC

    def test_policy_names_are_distinct(self):
        assert ImmediatePolicy.name != SyncPolicy.name

    def test_base_class_hooks_are_noops(self, observation_factory):
        policy = ImmediatePolicy()
        policy.begin_slot(None)
        policy.end_slot(None, 0, 0.0)
        policy.notify_update_applied(0, 1, 0.5)
        policy.reset()
        assert policy.decision_cost_evaluations() == 0

    def test_cannot_instantiate_abstract_base(self):
        with pytest.raises(TypeError):
            SchedulingPolicy()  # type: ignore[abstract]


class TestTheorem1Bounds:
    def test_energy_bound_decreases_in_v(self):
        bounds = [theorem1_energy_bound(100.0, v, 1.0) for v in (10.0, 100.0, 1000.0)]
        assert bounds == sorted(bounds, reverse=True)
        assert bounds[-1] == pytest.approx(1.1)

    def test_queue_bound_increases_in_v(self):
        bounds = [
            theorem1_queue_bound(100.0, v, optimal_power=1.0, achieved_power=0.8,
                                 epsilon_slack=0.5)
            for v in (10.0, 100.0, 1000.0)
        ]
        assert bounds == sorted(bounds)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            theorem1_energy_bound(-1.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            theorem1_energy_bound(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            theorem1_queue_bound(1.0, 1.0, 1.0, 1.0, 0.0)


class TestTradeoffAnalyzer:
    def _points(self):
        return [
            SweepPoint(v=0.0, energy_kj=800.0, mean_queue=1.0, mean_virtual_queue=0.0),
            SweepPoint(v=2e4, energy_kj=400.0, mean_queue=6.0, mean_virtual_queue=50.0),
            SweepPoint(v=6e4, energy_kj=300.0, mean_queue=12.0, mean_virtual_queue=300.0),
            SweepPoint(v=1e5, energy_kj=280.0, mean_queue=18.0, mean_virtual_queue=900.0),
        ]

    def test_shapes_detected(self):
        analyzer = TradeoffAnalyzer(self._points())
        assert analyzer.energy_is_nonincreasing()
        assert analyzer.queues_are_nondecreasing()

    def test_violation_detected(self):
        points = self._points()
        points[2] = SweepPoint(v=6e4, energy_kj=900.0, mean_queue=12.0, mean_virtual_queue=300.0)
        analyzer = TradeoffAnalyzer(points)
        assert not analyzer.energy_is_nonincreasing()

    def test_approximation_factor_and_saving(self):
        analyzer = TradeoffAnalyzer(self._points())
        assert analyzer.approximation_factor(offline_energy_kj=250.0) == pytest.approx(1.12)
        assert analyzer.energy_saving_vs(800.0) == pytest.approx(0.65)

    def test_knee_in_interior(self):
        analyzer = TradeoffAnalyzer(self._points())
        knee = analyzer.knee_v()
        assert 0.0 < knee < 1e5

    def test_points_sorted_internally(self):
        shuffled = list(reversed(self._points()))
        analyzer = TradeoffAnalyzer(shuffled)
        assert analyzer.points[0].v == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            TradeoffAnalyzer(self._points()[:1])
        analyzer = TradeoffAnalyzer(self._points())
        with pytest.raises(ValueError):
            analyzer.approximation_factor(0.0)
        with pytest.raises(ValueError):
            analyzer.energy_saving_vs(-1.0)

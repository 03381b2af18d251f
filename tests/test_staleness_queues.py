"""Tests for the staleness metrics, the queues and the Lyapunov machinery."""

import numpy as np
import pytest

from reference_loop import GapTracker
from repro.core.queues import LyapunovAnalyzer, TaskQueue, VirtualQueue
from repro.core.staleness import (
    gradient_gap,
    gradient_gap_from_params,
    momentum_lag_factor,
)


class TestMomentumLagFactor:
    def test_zero_lag_is_zero(self):
        assert momentum_lag_factor(0.9, 0) == 0.0

    def test_lag_one_is_one(self):
        assert momentum_lag_factor(0.9, 1) == pytest.approx(1.0)

    def test_monotone_in_lag(self):
        values = [momentum_lag_factor(0.9, lag) for lag in range(10)]
        assert values == sorted(values)

    def test_limit_is_geometric_series_sum(self):
        assert momentum_lag_factor(0.9, 10_000) == pytest.approx(10.0)

    def test_zero_momentum(self):
        assert momentum_lag_factor(0.0, 5) == 1.0
        assert momentum_lag_factor(0.0, 0) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            momentum_lag_factor(1.0, 3)
        with pytest.raises(ValueError):
            momentum_lag_factor(0.5, -1)


class TestGradientGap:
    def test_eq4_closed_form(self):
        # g = eta * (1 - beta^l)/(1 - beta) * ||v||
        value = gradient_gap(momentum_norm=2.0, learning_rate=0.1, momentum=0.5, lag=2)
        assert value == pytest.approx(0.1 * (1 - 0.25) / 0.5 * 2.0)

    def test_zero_lag_gives_zero_gap(self):
        assert gradient_gap(5.0, 0.1, 0.9, 0) == 0.0

    def test_gap_increases_with_lag(self):
        gaps = [gradient_gap(1.0, 0.05, 0.9, lag) for lag in range(15)]
        assert gaps == sorted(gaps)

    def test_gap_scales_with_momentum_norm(self):
        assert gradient_gap(4.0, 0.1, 0.9, 3) == pytest.approx(
            2.0 * gradient_gap(2.0, 0.1, 0.9, 3)
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            gradient_gap(-1.0, 0.1, 0.9, 1)
        with pytest.raises(ValueError):
            gradient_gap(1.0, 0.0, 0.9, 1)

    def test_exact_gap_from_params(self):
        theta_old = np.array([1.0, 2.0, 3.0])
        theta_new = np.array([1.0, 4.0, 3.0])
        assert gradient_gap_from_params(theta_old, theta_new) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            gradient_gap_from_params(theta_old, np.zeros(2))

    def test_gap_is_the_norm_of_the_eq3_displacement(self):
        """Eq. 3 moves the parameters by ``eta * (1 - beta**lag) / (1 - beta) * v``."""
        velocity = np.array([3.0, 0.0, 4.0])  # norm 5
        displacement = 0.1 * momentum_lag_factor(0.9, 4) * velocity
        assert np.linalg.norm(displacement) == pytest.approx(gradient_gap(5.0, 0.1, 0.9, 4))


class TestGapTracker:
    def test_idle_accumulation_eq12(self):
        tracker = GapTracker(epsilon=0.5)
        assert tracker.current_gap(0) == 0.0
        tracker.accumulate_idle(0)
        tracker.accumulate_idle(0)
        assert tracker.current_gap(0) == pytest.approx(1.0)

    def test_scheduled_gap_replaces_accumulated(self):
        tracker = GapTracker(epsilon=0.5)
        tracker.accumulate_idle(0)
        tracker.on_scheduled(0, 3.0)
        assert tracker.current_gap(0) == pytest.approx(3.0)

    def test_update_applied_resets(self):
        tracker = GapTracker(epsilon=0.1)
        tracker.on_scheduled(0, 2.0)
        tracker.on_update_applied(0, realized_gap=1.5)
        assert tracker.current_gap(0) == 0.0
        assert tracker.history(0) == [2.0, 1.5]

    def test_total_gap_sums_users(self):
        tracker = GapTracker(epsilon=1.0)
        tracker.accumulate_idle(0)
        tracker.accumulate_idle(1)
        tracker.accumulate_idle(1)
        assert tracker.total_gap() == pytest.approx(3.0)
        assert tracker.total_gap([1]) == pytest.approx(2.0)
        assert tracker.total_gap([5]) == 0.0

    def test_reset_clears_everything(self):
        tracker = GapTracker()
        tracker.accumulate_idle(0)
        tracker.on_scheduled(1, 2.0)
        tracker.reset()
        assert tracker.total_gap() == 0.0
        assert tracker.history(1) == []

    def test_negative_values_rejected(self):
        tracker = GapTracker()
        with pytest.raises(ValueError):
            tracker.on_scheduled(0, -1.0)
        with pytest.raises(ValueError):
            tracker.on_update_applied(0, realized_gap=-0.5)
        with pytest.raises(ValueError):
            GapTracker(epsilon=-0.1)


class TestTaskQueue:
    def test_eq15_dynamics(self):
        queue = TaskQueue()
        assert queue.update(arrivals=5, services=0) == 5
        assert queue.update(arrivals=0, services=2) == 3
        assert queue.update(arrivals=1, services=10) == 0  # clamped at zero
        assert queue.update(arrivals=2, services=0) == 2
        assert queue.history() == [0, 5, 3, 0, 2]

    def test_same_slot_arrival_and_service_cancel(self):
        """A user scheduled in the slot it becomes ready never backlogs."""
        queue = TaskQueue()
        for _ in range(5):
            queue.update(arrivals=3, services=3)
        assert queue.length == 0.0

    def test_never_negative(self):
        queue = TaskQueue()
        queue.update(arrivals=0, services=100)
        assert queue.length == 0.0

    def test_time_average(self):
        queue = TaskQueue()
        queue.update(2, 0)
        queue.update(2, 1)
        assert queue.time_average() == pytest.approx((0 + 2 + 3) / 3)

    def test_reset(self):
        queue = TaskQueue(initial=3)
        queue.update(1, 0)
        queue.reset()
        assert queue.length == 0.0 and queue.history() == [0.0]

    def test_invalid(self):
        with pytest.raises(ValueError):
            TaskQueue(initial=-1)
        queue = TaskQueue()
        with pytest.raises(ValueError):
            queue.update(-1, 0)


class TestVirtualQueue:
    def test_eq16_dynamics(self):
        queue = VirtualQueue(staleness_bound=10.0)
        assert queue.update(gap_sum=15.0) == 5.0
        assert queue.update(gap_sum=3.0) == 0.0  # drains by Lb - G
        assert queue.update(gap_sum=25.0) == 15.0

    def test_stays_zero_below_bound(self):
        queue = VirtualQueue(staleness_bound=100.0)
        for _ in range(50):
            queue.update(gap_sum=50.0)
        assert queue.length == 0.0

    def test_grows_when_bound_exceeded(self):
        queue = VirtualQueue(staleness_bound=10.0)
        for _ in range(10):
            queue.update(gap_sum=12.0)
        assert queue.length == pytest.approx(20.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            VirtualQueue(staleness_bound=0.0)
        queue = VirtualQueue(10.0)
        with pytest.raises(ValueError):
            queue.update(-1.0)


class TestLyapunovAnalyzer:
    def test_lyapunov_function_eq17(self):
        assert LyapunovAnalyzer.lyapunov(3.0, 4.0) == pytest.approx(12.5)

    def test_drift_eq18(self):
        assert LyapunovAnalyzer.drift(0.0, 0.0, 3.0, 4.0) == pytest.approx(12.5)
        assert LyapunovAnalyzer.drift(3.0, 4.0, 0.0, 0.0) == pytest.approx(-12.5)

    def test_bound_constant_lemma2(self):
        analyzer = LyapunovAnalyzer(staleness_bound=2.0, max_arrival=3.0,
                                    max_service=4.0, max_gap=5.0)
        assert analyzer.bound_constant() == pytest.approx(0.5 * (9 + 16 + 25 + 4))

    def test_drift_plus_penalty_bound_formula(self):
        analyzer = LyapunovAnalyzer(staleness_bound=2.0, max_arrival=1.0,
                                    max_service=1.0, max_gap=1.0)
        bound = analyzer.drift_plus_penalty_bound(
            v=10.0, expected_power=0.5, q_length=2.0, h_length=3.0,
            expected_arrival=1.0, expected_service=0.5, expected_gap=1.0,
        )
        expected = analyzer.bound_constant() + 10 * 0.5 + 2 * 0.5 + 3 * (1.0 - 2.0)
        assert bound == pytest.approx(expected)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            LyapunovAnalyzer(-1.0, 1.0, 1.0, 1.0)
        analyzer = LyapunovAnalyzer(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            analyzer.drift_plus_penalty_bound(-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

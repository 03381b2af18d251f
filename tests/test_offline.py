"""Tests for the Lemma 1 lag bound, the knapsack DP and the offline policy."""

import pytest

from repro.core.offline import (
    KnapsackItem,
    KnapsackSolver,
    OfflinePolicy,
    lag_upper_bound,
)
from oracle import decide_one, observation_batch
from repro.core.policies import Decision, SlotContext


class TestLagUpperBound:
    def test_no_other_users(self):
        assert lag_upper_bound(0, [0.0], [None], [100.0]) == 0

    def test_overlapping_immediate_executions(self):
        # Both users start at 0 with duration 100: each finishes inside the
        # other's interval, so the bound is 1 for each.
        starts = [0.0, 0.0]
        apps = [None, None]
        durations = [100.0, 100.0]
        assert lag_upper_bound(0, starts, apps, durations) == 1
        assert lag_upper_bound(1, starts, apps, durations) == 1

    def test_disjoint_intervals_do_not_count(self):
        starts = [0.0, 1000.0]
        apps = [None, None]
        durations = [100.0, 100.0]
        assert lag_upper_bound(0, starts, apps, durations) == 0
        assert lag_upper_bound(1, starts, apps, durations) == 0

    def test_app_arrival_branch_counts(self):
        # User 1 trains immediately far in the future, but its co-running
        # option would finish inside user 0's window.
        starts = [0.0, 5000.0]
        apps = [None, 20.0]
        durations = [200.0, 100.0]
        assert lag_upper_bound(0, starts, apps, durations) == 1

    def test_own_app_interval_considered(self):
        # User 0 may defer to its app at t=500; user 1 finishes at 550 which
        # falls only inside that deferred interval.
        starts = [0.0, 400.0]
        apps = [500.0, None]
        durations = [200.0, 150.0]
        assert lag_upper_bound(0, starts, apps, durations) == 1

    def test_bound_never_exceeds_n_minus_1(self):
        n = 6
        starts = [0.0] * n
        apps = [10.0] * n
        durations = [100.0] * n
        for i in range(n):
            assert lag_upper_bound(i, starts, apps, durations) <= n - 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            lag_upper_bound(0, [0.0], [None, None], [1.0])
        with pytest.raises(IndexError):
            lag_upper_bound(5, [0.0], [None], [1.0])


class TestKnapsackSolver:
    def _item(self, user, saving, gap):
        return KnapsackItem(user_id=user, energy_saving_j=saving, gradient_gap=gap,
                            app_arrival_s=0.0)

    def test_selects_everything_under_relaxed_budget(self):
        solver = KnapsackSolver(capacity=1000.0)
        items = [self._item(i, 100.0, 1.0) for i in range(5)]
        solution = solver.solve(items)
        assert sorted(solution.selected_user_ids) == [0, 1, 2, 3, 4]
        assert solution.total_saving_j == pytest.approx(500.0)

    def test_respects_capacity(self):
        solver = KnapsackSolver(capacity=10.0, resolution=10)
        items = [self._item(0, 60.0, 6.0), self._item(1, 50.0, 5.0), self._item(2, 50.0, 5.0)]
        solution = solver.solve(items)
        assert solution.total_gap <= 10.0 + 1e-9
        # Optimal is items 1+2 (value 100) not item 0 alone (60).
        assert sorted(solution.selected_user_ids) == [1, 2]

    def test_matches_bruteforce_on_small_instances(self):
        import itertools

        solver = KnapsackSolver(capacity=12.0, resolution=1200)
        items = [
            self._item(0, 10.0, 4.0),
            self._item(1, 7.0, 3.0),
            self._item(2, 12.0, 6.0),
            self._item(3, 3.0, 2.0),
            self._item(4, 9.0, 5.0),
        ]
        best = 0.0
        for mask in itertools.product([0, 1], repeat=len(items)):
            gap = sum(i.gradient_gap for i, m in zip(items, mask) if m)
            if gap <= 12.0:
                best = max(best, sum(i.energy_saving_j for i, m in zip(items, mask) if m))
        solution = solver.solve(items)
        assert solution.total_saving_j == pytest.approx(best)

    def test_vectorized_dp_matches_scalar_reference(self):
        """The NumPy rolling-array DP reproduces the scalar Algorithm 1 DP
        exactly — selections, values and tie-breaks — on randomized
        instances (including zero-weight items and infeasible ones)."""
        import numpy as np

        def scalar_solve(solver, items):
            candidates = [
                (i, item)
                for i, item in enumerate(items)
                if item.energy_saving_j > 0.0 and item.gradient_gap <= solver.capacity
            ]
            cap = solver.resolution
            best = [0.0] * (cap + 1)
            chosen = [[] for _ in range(cap + 1)]
            for index, item in candidates:
                weight = max(0, solver._quantise(item.gradient_gap))
                for y in range(cap, weight - 1, -1):
                    value = best[y - weight] + item.energy_saving_j
                    if value > best[y]:
                        best[y] = value
                        chosen[y] = chosen[y - weight] + [index]
            best_y = max(range(cap + 1), key=lambda y: best[y])
            return [items[i].user_id for i in chosen[best_y]], best[best_y]

        rng = np.random.default_rng(7)
        for _ in range(60):
            capacity = float(rng.uniform(1.0, 1500.0))
            solver = KnapsackSolver(capacity, resolution=int(rng.choice([40, 250])))
            items = [
                self._item(
                    user,
                    float(rng.uniform(-5.0, 300.0)),
                    float(rng.uniform(0.0, capacity * 1.3)),
                )
                for user in range(int(rng.integers(0, 24)))
            ]
            solution = solver.solve(items)
            expected_ids, expected_value = scalar_solve(solver, items)
            assert solution.selected_user_ids == expected_ids
            assert solution.total_saving_j == expected_value

    def test_skips_negative_saving_items(self):
        solver = KnapsackSolver(capacity=100.0)
        items = [self._item(0, -50.0, 1.0), self._item(1, 20.0, 1.0)]
        solution = solver.solve(items)
        assert solution.selected_user_ids == [1]

    def test_skips_infeasible_items(self):
        solver = KnapsackSolver(capacity=5.0)
        items = [self._item(0, 100.0, 50.0), self._item(1, 10.0, 1.0)]
        solution = solver.solve(items)
        assert solution.selected_user_ids == [1]

    def test_empty_input(self):
        solver = KnapsackSolver(capacity=5.0)
        solution = solver.solve([])
        assert solution.selected_user_ids == []
        assert solution.total_saving_j == 0.0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            KnapsackSolver(capacity=0.0)
        with pytest.raises(ValueError):
            KnapsackSolver(capacity=10.0, resolution=0)


class _FakeOracle:
    """Minimal arrival oracle: one fixed arrival per user."""

    def __init__(self, arrivals):
        self._arrivals = arrivals  # {user: (slot, app_name)}

    def next_arrival(self, user_id, start_slot, end_slot):
        arrival = self._arrivals.get(user_id)
        if arrival is None:
            return None
        slot, name = arrival
        if start_slot <= slot < end_slot:
            return slot, name
        return None


class TestOfflinePolicy:
    def _context(self, slot, num_ready=2):
        return SlotContext(slot=slot, slot_seconds=1.0, num_arrivals=0,
                           num_ready=num_ready, num_training=0, num_users=2)

    def test_requires_oracle(self, observation_factory):
        policy = OfflinePolicy(staleness_bound=100.0, window_slots=100)
        decide_one(policy, observation_factory(user_id=0))  # idle: now pending
        with pytest.raises(RuntimeError):
            policy.begin_slot(self._context(0))

    def test_selected_user_waits_for_its_app(self, observation_factory):
        policy = OfflinePolicy(staleness_bound=1000.0, window_slots=200)
        policy.attach_oracle(_FakeOracle({0: (50, "zoom")}))
        obs_early = observation_factory(user_id=0, slot=0, app_running=False)
        # First decision registers the user; planning happens at slot 0.
        policy.begin_slot(self._context(0))
        assert decide_one(policy, obs_early) is Decision.IDLE
        policy.begin_slot(self._context(1))
        assert decide_one(policy, observation_factory(user_id=0, slot=10)) is Decision.IDLE
        # Once the app arrives the user co-runs.
        obs_app = observation_factory(user_id=0, slot=50, app_running=True)
        assert decide_one(policy, obs_app) is Decision.SCHEDULE

    def test_user_without_arrival_defers_by_default(self, observation_factory):
        policy = OfflinePolicy(staleness_bound=1000.0, window_slots=100)
        policy.attach_oracle(_FakeOracle({}))
        policy.begin_slot(self._context(0))
        obs = observation_factory(user_id=0, slot=0, app_running=False)
        assert decide_one(policy, obs) is Decision.IDLE  # now pending
        policy.begin_slot(self._context(100))  # replan with the user pending
        assert decide_one(policy, observation_factory(user_id=0, slot=100)) is Decision.IDLE

    def test_user_without_arrival_can_schedule_immediately_when_configured(
        self, observation_factory
    ):
        policy = OfflinePolicy(staleness_bound=1000.0, window_slots=100,
                               schedule_unmatched_immediately=True)
        policy.attach_oracle(_FakeOracle({}))
        obs = observation_factory(user_id=0, slot=0, app_running=False)
        assert decide_one(policy, obs) is Decision.IDLE  # no plan yet: pending
        policy.begin_slot(self._context(0))
        assert decide_one(policy, obs) is Decision.SCHEDULE

    def test_opportunistic_corun_for_unplanned_user(self, observation_factory):
        policy = OfflinePolicy(staleness_bound=1000.0, window_slots=500)
        policy.attach_oracle(_FakeOracle({}))
        policy.begin_slot(self._context(0))
        obs = observation_factory(user_id=3, slot=20, app_running=True)
        assert decide_one(policy, obs) is Decision.SCHEDULE

    def test_reset_clears_state(self, observation_factory):
        policy = OfflinePolicy(staleness_bound=500.0, window_slots=100)
        policy.attach_oracle(_FakeOracle({0: (10, "zoom")}))
        policy.begin_slot(self._context(0))
        decide_one(policy, observation_factory(user_id=0))
        policy.reset()
        assert policy.decision_cost_evaluations() == 0
        assert policy.solutions == []

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            OfflinePolicy(window_slots=0)

    def test_invalid_gap_metric(self):
        with pytest.raises(ValueError):
            OfflinePolicy(gap_metric="entropy")

    def test_lag_metric_builds_integer_weights(self, observation_factory):
        """With gap_metric='lag' the knapsack weights are the Lemma 1 counts."""
        policy = OfflinePolicy(staleness_bound=10.0, window_slots=200, gap_metric="lag")
        policy.attach_oracle(_FakeOracle({0: (50, "zoom"), 1: (60, "news")}))
        pool = observation_batch([observation_factory(user_id=user) for user in (0, 1)])
        assert policy.decide_all(pool).tolist() == [False, False]  # both pending
        policy.begin_slot(self._context(0))
        assert policy.solutions, "planning should have produced a knapsack solution"
        solution = policy.solutions[-1]
        # Both users fit comfortably inside a lag budget of 10 updates.
        assert sorted(solution.selected_user_ids) == [0, 1]
        assert solution.total_gap <= 10.0


class TestOracleAttachment:
    """attach_oracle is idempotent and refuses mid-run oracle swaps."""

    def _context(self, slot):
        return SlotContext(slot=slot, slot_seconds=1.0, num_arrivals=0,
                           num_ready=1, num_training=0, num_users=2)

    def _ready_policy(self):
        policy = OfflinePolicy(staleness_bound=100.0, window_slots=10)
        oracle = _FakeOracle({})
        policy.attach_oracle(oracle)
        return policy, oracle

    def test_reattaching_same_oracle_is_noop(self):
        policy, oracle = self._ready_policy()
        policy.attach_oracle(oracle)  # engine construction + reruns
        assert policy._oracle is oracle

    def test_swapping_before_planning_is_allowed(self):
        policy, _ = self._ready_policy()
        replacement = _FakeOracle({})
        policy.attach_oracle(replacement)
        assert policy._oracle is replacement

    def test_swapping_after_planning_raises(self, observation_factory):
        policy, _ = self._ready_policy()
        policy.begin_slot(self._context(0))
        decide_one(policy, observation_factory(user_id=0))
        policy.begin_slot(self._context(10))  # plans the next window
        with pytest.raises(RuntimeError):
            policy.attach_oracle(_FakeOracle({}))

    def test_reset_allows_a_fresh_oracle(self, observation_factory):
        policy, _ = self._ready_policy()
        policy.begin_slot(self._context(0))
        decide_one(policy, observation_factory(user_id=0))
        policy.begin_slot(self._context(10))
        policy.reset()
        replacement = _FakeOracle({})
        policy.attach_oracle(replacement)
        assert policy._oracle is replacement

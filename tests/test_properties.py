"""Property-based tests (hypothesis) for the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracle import frozen_evaluate, observation_batch
from reference_loop import GapTracker
from repro.core.offline import KnapsackItem, KnapsackSolver, lag_upper_bound
from repro.core.online import OnlineController
from repro.core.policies import Decision
from repro.core.queues import TaskQueue, VirtualQueue
from repro.core.staleness import gradient_gap, momentum_lag_factor
from repro.energy.measurements import energy_saving_fraction
from repro.fl.model import build_mlp
from repro.fl.optimizer import MomentumSGD

# Keep hypothesis examples modest: each example is cheap but the suite is large.
DEFAULT_SETTINGS = settings(max_examples=50, deadline=None)


class TestQueueProperties:
    @DEFAULT_SETTINGS
    @given(st.lists(st.tuples(st.floats(0, 50), st.floats(0, 50)), min_size=1, max_size=100))
    def test_task_queue_never_negative_and_bounded(self, events):
        queue = TaskQueue()
        total_arrivals = 0.0
        for arrivals, services in events:
            queue.update(arrivals, services)
            total_arrivals += arrivals
            assert queue.length >= 0.0
            assert queue.length <= total_arrivals

    @DEFAULT_SETTINGS
    @given(
        st.floats(0.1, 100.0),
        st.lists(st.floats(0, 200), min_size=1, max_size=100),
    )
    def test_virtual_queue_never_negative(self, bound, gaps):
        queue = VirtualQueue(staleness_bound=bound)
        for gap in gaps:
            queue.update(gap)
            assert queue.length >= 0.0

    @DEFAULT_SETTINGS
    @given(st.floats(0.1, 100.0), st.lists(st.floats(0, 200), min_size=1, max_size=50))
    def test_virtual_queue_history_length(self, bound, gaps):
        queue = VirtualQueue(staleness_bound=bound)
        for gap in gaps:
            queue.update(gap)
        assert len(queue.history()) == len(gaps) + 1


class TestStalenessProperties:
    @DEFAULT_SETTINGS
    @given(st.floats(0.0, 0.99), st.integers(0, 200))
    def test_lag_factor_bounded_by_geometric_limit(self, beta, lag):
        factor = momentum_lag_factor(beta, lag)
        assert 0.0 <= factor <= (1.0 / (1.0 - beta)) + 1e-9
        assert factor <= lag + 1e-9 or beta > 0.0

    @DEFAULT_SETTINGS
    @given(
        st.floats(0.0, 100.0),
        st.floats(0.001, 1.0),
        st.floats(0.0, 0.99),
        st.integers(0, 50),
        st.integers(0, 50),
    )
    def test_gradient_gap_monotone_in_lag(self, norm, lr, beta, lag_a, lag_b):
        low, high = sorted((lag_a, lag_b))
        assert gradient_gap(norm, lr, beta, low) <= gradient_gap(norm, lr, beta, high) + 1e-12

    @DEFAULT_SETTINGS
    @given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=30), st.floats(0.0, 1.0))
    def test_gap_tracker_total_equals_sum_of_users(self, gaps, epsilon):
        tracker = GapTracker(epsilon=epsilon)
        for user, gap in enumerate(gaps):
            tracker.on_scheduled(user, gap)
        assert tracker.total_gap() == pytest.approx(sum(gaps))
        for user in range(len(gaps)):
            tracker.on_update_applied(user)
        assert tracker.total_gap() == pytest.approx(0.0)


class TestKnapsackProperties:
    @DEFAULT_SETTINGS
    @given(
        st.lists(
            st.tuples(st.floats(0.1, 100.0), st.floats(0.01, 20.0)),
            min_size=0,
            max_size=12,
        ),
        st.floats(1.0, 50.0),
    )
    def test_solution_is_feasible_and_no_worse_than_greedy_singletons(self, raw, capacity):
        items = [
            KnapsackItem(user_id=i, energy_saving_j=value, gradient_gap=gap, app_arrival_s=0.0)
            for i, (value, gap) in enumerate(raw)
        ]
        solver = KnapsackSolver(capacity=capacity, resolution=500)
        solution = solver.solve(items)
        # Feasibility: the selected gaps respect the budget (up to grid rounding).
        assert solution.total_gap <= capacity + capacity / 500 + 1e-9
        # Selected users are unique and valid.
        assert len(set(solution.selected_user_ids)) == len(solution.selected_user_ids)
        assert set(solution.selected_user_ids) <= {item.user_id for item in items}
        # The DP is at least as good as picking the single best feasible item.
        singleton_best = max(
            (item.energy_saving_j for item in items if item.gradient_gap <= capacity),
            default=0.0,
        )
        assert solution.total_saving_j >= singleton_best - 1e-9

    @DEFAULT_SETTINGS
    @given(
        st.integers(2, 8),
        st.floats(0.0, 500.0),
        st.floats(1.0, 300.0),
    )
    def test_lag_bound_is_at_most_n_minus_1(self, n, spread, duration):
        starts = [float(i) * spread for i in range(n)]
        apps = [start + spread / 2 for start in starts]
        durations = [duration] * n
        for i in range(n):
            bound = lag_upper_bound(i, starts, apps, durations)
            assert 0 <= bound <= n - 1


class TestOnlineControllerProperties:
    @DEFAULT_SETTINGS
    @given(
        st.floats(0.0, 1e5),
        st.floats(0.0, 30.0),
        st.floats(0.0, 2000.0),
        st.floats(0.0, 10.0),
        st.booleans(),
    )
    def test_decision_matches_cost_comparison(self, v, q, h, gap, app_running):
        from tests.conftest import make_observation

        controller = OnlineController(v=v, epsilon=0.05)
        observation = make_observation(app_running=app_running, current_gap=gap)
        costs = controller.evaluate_batch(observation_batch([observation]), q, h)
        frozen = frozen_evaluate(controller, observation, q, h)
        assert (costs.schedule_cost[0], costs.idle_cost[0]) == frozen[:2]
        assert bool(costs.best()[0]) is (frozen.best() is Decision.SCHEDULE)
        # The objective values are finite.
        assert np.isfinite(frozen.schedule_cost) and np.isfinite(frozen.idle_cost)

    @DEFAULT_SETTINGS
    @given(st.floats(0.0, 30.0), st.floats(0.0, 500.0))
    def test_scheduling_preference_monotone_in_queue(self, q, h):
        """If the controller schedules at backlog Q, it also schedules at Q' > Q."""
        from tests.conftest import make_observation

        controller = OnlineController(v=4000.0, epsilon=0.05)
        observation = make_observation(app_running=False, current_gap=1.0)
        batch = observation_batch([observation])

        if controller.evaluate_batch(batch, q, h).best()[0]:
            assert controller.evaluate_batch(batch, q + 5.0, h).best()[0]
        if frozen_evaluate(controller, observation, q, h).best() is Decision.SCHEDULE:
            assert frozen_evaluate(controller, observation, q + 5.0, h).best() is Decision.SCHEDULE


    @settings(max_examples=300, deadline=None)
    @given(
        # (beta, eta, ||v_t||, lag l, increase d)
        rows=st.lists(
            st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 10.0, exclude_min=True),
                      st.floats(0.0, 1e3), st.integers(0, 300), st.integers(1, 300)),
            min_size=1, max_size=6,
        ),
        shared_beta=st.booleans(),
        v=st.floats(0.0, 1e5), q=st.floats(0.0, 30.0), h=st.floats(0.0, 1e4),
        app_running=st.booleans(), gap=st.floats(0.0, 10.0),
    )
    def test_schedule_cost_is_non_decreasing_in_the_lag(
        self, rows, shared_beta, v, q, h, app_running, gap
    ):
        """What the repair pass rests on: Eq. (21)'s schedule cost never falls
        as the lag grows and the idle cost ignores it, so an idler stays idle."""
        from tests.conftest import make_observation

        if shared_beta:  # one beta: the factor-table read
            rows = [(rows[0][0], *row[1:]) for row in rows]
        observations = [
            make_observation(
                user_id=2 * index + step, app_running=app_running, current_gap=gap,
                momentum_coeff=beta, learning_rate=eta, momentum_norm=norm,
                estimated_lag=lag + step * more,
            )
            for index, (beta, eta, norm, lag, more) in enumerate(rows)
            for step in (0, 1)
        ]
        costs = OnlineController(v=v, epsilon=0.05).evaluate_batch(
            observation_batch(observations), q, h
        )
        low, high = costs.schedule_cost[0::2], costs.schedule_cost[1::2]
        assert (high >= low).all(), (low, high)
        assert costs.idle_cost[0::2].tolist() == costs.idle_cost[1::2].tolist()
        assert not (~costs.best()[0::2] & costs.best()[1::2]).any()  # idle -> schedule


class TestEnergyProperties:
    @DEFAULT_SETTINGS
    @given(
        st.floats(0.1, 15.0),
        st.floats(10.0, 1000.0),
        st.floats(0.1, 15.0),
        st.floats(0.1, 20.0),
        st.floats(10.0, 1000.0),
    )
    def test_saving_fraction_below_one(self, p_train, t_train, p_app, p_corun, t_app):
        saving = energy_saving_fraction(p_train, t_train, p_app, p_corun, t_app)
        assert saving < 1.0

    @DEFAULT_SETTINGS
    @given(st.floats(0.1, 10.0), st.floats(10.0, 500.0), st.floats(0.1, 10.0), st.floats(10.0, 500.0))
    def test_saving_positive_when_corun_cheaper_than_app_alone(
        self, p_train, t_train, p_app, t_app
    ):
        """If co-running costs no more than the app alone, saving is positive."""
        saving = energy_saving_fraction(p_train, t_train, p_app, p_app, t_app)
        assert saving > 0.0


class TestBackendDifferentialFuzz:
    """Differential fuzzing of the execution-mode equivalence contract.

    Hypothesis draws small random fleets and the same simulation runs on
    every execution mode — the per-user reference loop, the vectorized
    fleet backend with and without event-horizon fast-forward, and the
    sharded engine at two and three shards (inline handles: same protocol
    and arithmetic as worker processes, without fork overhead).  Every
    observable output must be bitwise identical across all five.  The
    reference loop is the independent oracle of the slot step the fleet's
    ``advance`` and ``advance_quiet`` share: the draws cover fleets with and
    without batteries (dev boards never have one, so battery fleets are
    mixed), batteries that only drain and batteries that charge back across
    the participation gate, the Table III overhead, and a trace grid fine
    enough that a region-ending flip lands on a tick.

    Runs are seconds-scale, so examples are few; ``derandomize`` keeps CI
    stable while local runs can widen the net with
    ``--hypothesis-seed=random``.
    """

    FUZZ_SETTINGS = settings(
        max_examples=12,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )

    @staticmethod
    def _digest(result) -> dict:
        return dict(
            energy=result.total_energy_j(),
            updates=result.num_updates,
            accuracy=[
                (s.time_s, s.accuracy, s.loss) for s in result.accuracy.samples
            ],
            queue=list(result.queue_history),
            virtual_queue=list(result.virtual_queue_history),
            slots=[
                (s.slot, s.cumulative_energy_j, s.queue_length,
                 s.virtual_queue_length, s.gap_sum)
                for s in result.trace.slot_samples
            ],
            comm=(result.comm_bytes_mb, result.comm_failures),
            soc=list(result.final_battery_soc),
        )

    @FUZZ_SETTINGS
    @given(
        num_users=st.integers(2, 8),
        total_slots=st.integers(60, 240),
        arrival_prob=st.sampled_from([0.0, 0.005, 0.02, 0.05]),
        seed=st.integers(0, 2**16),
        train_samples=st.integers(120, 240),
        policy_name=st.sampled_from(["online", "sync", "immediate"]),
        charge_rate_w=st.sampled_from([None, 0.0, 3.0]),
        overhead=st.booleans(),
        trace_interval=st.sampled_from([1, 20]),
    )
    def test_all_execution_modes_agree_bitwise(
        self, num_users, total_slots, arrival_prob, seed, train_samples, policy_name,
        charge_rate_w, overhead, trace_interval,
    ):
        from repro.core.online import OnlinePolicy
        from repro.core.policies import ImmediatePolicy, SyncPolicy
        from repro.sim.config import SimulationConfig
        from repro.sim.engine import SimulationEngine
        from repro.sim.shard import ShardedEngine

        from oracle import make_engine

        config = SimulationConfig(
            num_users=num_users,
            total_slots=total_slots,
            app_arrival_prob=arrival_prob,
            seed=seed,
            num_train_samples=train_samples,
            num_test_samples=80,
            hidden_dims=(8,),
            eval_interval_slots=50,
            trace_interval_slots=trace_interval,
            class_separation=2.5,
            clusters_per_class=1,
            label_noise=0.0,
            learning_rate=0.05,
            include_scheduler_overhead=overhead,
            # 120 J: about half a job, so phones gate out within the horizon.
            battery_capacity_j=None if charge_rate_w is None else 120.0,
            battery_charge_rate_w=charge_rate_w or 0.0,
            min_battery_soc=0.35,
        )

        def policy():
            if policy_name == "sync":
                return SyncPolicy()
            if policy_name == "immediate":
                return ImmediatePolicy()
            return OnlinePolicy(
                v=4000.0, staleness_bound=500.0, epsilon=0.01, distributed=True
            )

        reference = self._digest(
            make_engine("loop", config, policy()).run()
        )
        others = {
            "fleet": SimulationEngine(
                config, policy(), fast_forward=False
            ),
            "fleet+ff": SimulationEngine(
                config, policy(), fast_forward=True
            ),
            "2-shard": ShardedEngine(config, policy(), shards=2, inline=True),
            "3-shard": ShardedEngine(config, policy(), shards=3, inline=True),
        }
        for name, engine in others.items():
            observed = self._digest(engine.run())
            for key, want in reference.items():
                assert observed[key] == want, (
                    f"{name} diverged from the loop reference on {key} "
                    f"(users={num_users} slots={total_slots} "
                    f"arrivals={arrival_prob} seed={seed} policy={policy_name} "
                    f"charge={charge_rate_w} overhead={overhead} ticks={trace_interval})"
                )


class TestOptimizerProperties:
    @DEFAULT_SETTINGS
    @given(st.floats(0.001, 0.5), st.floats(0.0, 0.98), st.integers(1, 5))
    def test_flat_round_trip_preserved_by_optimizer(self, lr, beta, steps):
        model = build_mlp(input_dim=6, hidden_dims=(5,), num_classes=3, seed=0)
        optimizer = MomentumSGD(learning_rate=lr, momentum=beta)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, 6))
        y = rng.integers(0, 3, size=12)
        for _ in range(steps):
            model.train_step_gradients(x, y)
            optimizer.step(model)
            assert np.all(np.isfinite(model.flat_params))
        # The flat vector and the layer parameters agree.
        layer_params = [value.ravel() for _, _, value in model.parameter_items()]
        assert np.array_equal(model.get_flat_params(), np.concatenate(layer_params))


class TestQueueRecursionsAcrossRegions:
    """Eq. (15) and Eq. (16) hold exactly between every two consecutive slot
    samples, with certified-idle regions skipping most waiting slots."""

    @pytest.mark.parametrize("bound", [500.0, 0.05])
    def test_every_consecutive_sample_pair(self, monkeypatch, bound):
        from collections import Counter

        from repro.core.online import OnlinePolicy
        from repro.core.policies import Decision
        from repro.sim.config import SimulationConfig
        from repro.sim.engine import SimulationEngine
        from repro.sim.shard import FleetShard

        executed = []
        run_slot = FleetShard.run_slot
        monkeypatch.setattr(
            FleetShard,
            "run_slot",
            lambda shard, slot, *args: executed.append(slot) or run_slot(shard, slot, *args),
        )
        config = SimulationConfig(
            num_users=10, total_slots=700, app_arrival_prob=0.002, seed=5,
            num_train_samples=240, num_test_samples=100, hidden_dims=(8,),
            eval_interval_slots=350, trace_interval_slots=1,
        )
        policy = OnlinePolicy(v=4000.0, staleness_bound=bound)
        engine = SimulationEngine(config, policy)
        samples = engine.run().trace.slot_samples
        assert [s.slot for s in samples] == list(range(config.total_slots))
        assert len(executed) < config.total_slots // 2  # regions were active
        arrivals = Counter(
            round(record.start_time_s / config.slot_seconds)
            for record in engine.transport.records
            if record.direction == "download"
        )
        services = Counter(
            slot for slot, _, decision in policy.decision_log if decision is Decision.SCHEDULE
        )
        for before, after in zip(samples, samples[1:]):
            slot = after.slot
            # Eq. (16): H(t+1) = max(H(t) + G(t) - Lb, 0).
            assert after.virtual_queue_length == max(
                before.virtual_queue_length + after.gap_sum - bound, 0.0
            )
            # Eq. (15), arrivals counted before service (TaskQueue).
            assert after.queue_length == max(
                before.queue_length + arrivals[slot] - services[slot], 0.0
            )

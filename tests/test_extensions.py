"""Tests for the extension modules: decision granularity, carbon, plotting."""

import numpy as np
import pytest

from oracle import decide_one
from repro.analysis.plotting import ascii_multi_plot, ascii_plot, sparkline
from repro.core.granularity import DecisionIntervalPolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import Decision, ImmediatePolicy, SlotContext
from repro.energy.carbon import GRID_INTENSITIES, CarbonAccountant, CarbonIntensity


class TestDecisionIntervalPolicy:
    def _context(self):
        return SlotContext(slot=0, slot_seconds=1.0, num_arrivals=1, num_ready=1,
                           num_training=0, num_users=4)

    def test_interval_one_is_transparent(self, observation_factory):
        wrapped = DecisionIntervalPolicy(ImmediatePolicy(), interval_slots=1)
        for waiting in range(5):
            obs = observation_factory(waiting_slots=waiting)
            assert decide_one(wrapped, obs) is Decision.SCHEDULE
        assert wrapped.skipped_decisions == 0

    def test_skips_between_decision_points(self, observation_factory):
        wrapped = DecisionIntervalPolicy(ImmediatePolicy(), interval_slots=10)
        decisions = [
            decide_one(wrapped, observation_factory(waiting_slots=w)) for w in range(20)
        ]
        assert decisions[0] is Decision.SCHEDULE
        assert decisions[10] is Decision.SCHEDULE
        assert all(d is Decision.IDLE for i, d in enumerate(decisions) if i % 10 != 0)
        assert wrapped.skipped_decisions == 18

    def test_global_alignment_mode(self, observation_factory):
        wrapped = DecisionIntervalPolicy(ImmediatePolicy(), interval_slots=5,
                                         align_to_arrival=False)
        assert decide_one(wrapped, observation_factory(slot=5, waiting_slots=3)) is Decision.SCHEDULE
        assert decide_one(wrapped, observation_factory(slot=6, waiting_slots=0)) is Decision.IDLE

    def test_fewer_inner_evaluations_reduce_overhead(self, observation_factory):
        inner = OnlinePolicy(v=0.0, staleness_bound=100.0)
        wrapped = DecisionIntervalPolicy(inner, interval_slots=4)
        wrapped.begin_slot(self._context())
        for waiting in range(8):
            decide_one(wrapped, observation_factory(waiting_slots=waiting))
        assert wrapped.decision_cost_evaluations() == 2

    def test_delegation_of_queues_and_lifecycle(self, observation_factory):
        inner = OnlinePolicy(v=100.0, staleness_bound=50.0)
        wrapped = DecisionIntervalPolicy(inner, interval_slots=2)
        context = self._context()
        wrapped.begin_slot(context)
        decide_one(wrapped, observation_factory(waiting_slots=0))
        wrapped.end_slot(context, num_scheduled=0, gap_sum=100.0)
        assert wrapped.virtual_queue.length > 0.0
        assert wrapped.task_queue is inner.task_queue
        wrapped.reset()
        assert inner.task_queue.length == 0.0
        assert wrapped.skipped_decisions == 0

    def test_name_and_aggregation_mirror_inner(self):
        wrapped = DecisionIntervalPolicy(ImmediatePolicy(), interval_slots=30)
        assert "immediate" in wrapped.name and "30" in wrapped.name
        assert wrapped.aggregation is ImmediatePolicy.aggregation

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            DecisionIntervalPolicy(ImmediatePolicy(), interval_slots=0)


class TestCarbonAccounting:
    def test_grams_conversion(self):
        accountant = CarbonAccountant("world_average")
        # 1 kWh = 3.6e6 J at 475 g/kWh.
        assert accountant.grams_co2(3.6e6) == pytest.approx(475.0)
        assert accountant.grams_co2(0.0) == 0.0

    def test_region_selection_and_custom_intensity(self):
        hydro = CarbonAccountant("hydro")
        coal = CarbonAccountant("coal_heavy")
        assert coal.grams_co2(1e6) > hydro.grams_co2(1e6)
        custom = CarbonAccountant(CarbonIntensity("lab", 100.0))
        assert custom.grams_co2(3.6e6) == pytest.approx(100.0)

    def test_result_based_accounting(self, immediate_result, online_result):
        accountant = CarbonAccountant("us_average")
        saving = accountant.saving_grams(online_result, immediate_result)
        assert saving > 0.0
        assert accountant.grams_co2_from_result(online_result) < (
            accountant.grams_co2_from_result(immediate_result)
        )

    def test_fleet_extrapolation(self):
        accountant = CarbonAccountant("eu_average")
        yearly = accountant.fleet_extrapolation(
            energy_j_per_device=10_000.0, num_devices=1_000_000, rounds_per_day=1.0
        )
        assert yearly > 0.0
        assert yearly == pytest.approx(
            accountant.grams_co2(10_000.0 * 1_000_000 * 365.0)
        )

    def test_invalid_inputs(self):
        with pytest.raises(KeyError):
            CarbonAccountant("mars")
        with pytest.raises(ValueError):
            CarbonIntensity("x", -1.0)
        accountant = CarbonAccountant()
        with pytest.raises(ValueError):
            accountant.grams_co2(-1.0)
        with pytest.raises(ValueError):
            accountant.fleet_extrapolation(1.0, 0)

    def test_known_regions_present(self):
        assert {"world_average", "us_average", "eu_average"} <= set(GRID_INTENSITIES)


class TestAsciiPlotting:
    def test_sparkline_levels(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert line[0] != line[-1]
        assert sparkline([5.0, 5.0]) == "▁▁"
        with pytest.raises(ValueError):
            sparkline([])

    def test_single_series_plot_contains_markers_and_labels(self):
        text = ascii_plot([0, 1, 2, 3], [0, 1, 4, 9], title="quadratic", x_label="t")
        assert "quadratic" in text
        assert "*" in text
        assert "9" in text  # y-axis maximum label

    def test_multi_series_plot_legend(self):
        text = ascii_multi_plot(
            {"a": ([0, 1, 2], [0, 1, 2]), "b": ([0, 1, 2], [2, 1, 0])},
            title="cross", x_label="x",
        )
        assert "* a" in text and "+ b" in text
        # Both markers appear on the canvas.
        assert "*" in text and "+" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_multi_plot({})
        with pytest.raises(ValueError):
            ascii_multi_plot({"a": ([0, 1], [1])})
        with pytest.raises(ValueError):
            ascii_multi_plot({"a": ([], [])})
        with pytest.raises(ValueError):
            ascii_multi_plot({"a": ([0], [0])}, width=2, height=2)

    def test_constant_series_does_not_crash(self):
        text = ascii_plot([0, 1, 2], [1.0, 1.0, 1.0])
        assert "|" in text

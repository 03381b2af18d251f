"""Tests for the experiment runners and the reporting helpers."""

import pytest

from repro.analysis.experiments import (
    ExperimentScale,
    fig1_power_schedules,
    fig2_fps_traces,
    fig5c_time_to_accuracy,
    fig6_arrival_sweep,
    paper_config,
    run_policy,
    table2_rows,
    table3_overhead_rows,
)
from repro.analysis.reporting import format_table
from repro.core.policies import ImmediatePolicy


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 2]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_table_none_rendering(self):
        text = format_table(["x"], [[None]])
        assert "-" in text.splitlines()[-1]

    def test_format_table_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])


class TestStaticExperiments:
    def test_table2_rows_shape(self):
        rows = table2_rows()
        # 4 devices x (1 training row + 8 app rows).
        assert len(rows) == 4 * 9
        pixel2_map = next(r for r in rows if r[0] == "pixel2" and r[1] == "map")
        assert pixel2_map[5] == pytest.approx(pixel2_map[6], abs=3.0)

    def test_table3_rows(self):
        rows = table3_overhead_rows()
        assert len(rows) == 4
        assert all(0.0 < row[3] < 10.0 for row in rows)

    def test_fig1_rows_reproduce_savings(self):
        rows = fig1_power_schedules(devices=("pixel2",), seed=0)
        assert len(rows) == 8
        savings = {row[1]: row[5] for row in rows}
        # Pixel 2 savings cluster in the paper's 20-40% band.
        assert all(15.0 < s < 45.0 for s in savings.values())

    def test_fig2_traces(self):
        results = fig2_fps_traces(apps=("angrybird",), duration_s=60, seed=0)
        entry = results["angrybird"]
        assert len(entry["alone"]) == 60
        assert entry["relative_degradation"] < 0.10


class TestSimulationExperiments:
    def test_paper_config_scales(self):
        paper = paper_config()
        assert paper.num_users == 25 and paper.total_slots == 10_800
        bench = paper_config(ExperimentScale.benchmark())
        assert bench.total_slots == 3600
        smoke = paper_config(ExperimentScale.smoke(), num_train_samples=500)
        assert smoke.num_train_samples == 500

    def test_run_policy_smoke(self):
        config = paper_config(
            ExperimentScale.smoke(), num_train_samples=400, num_test_samples=200
        )
        result = run_policy(config, ImmediatePolicy())
        assert result.total_energy_kj() > 0.0

    def test_fig6_sweep_structure(self):
        scale = ExperimentScale(num_users=5, total_slots=400, app_arrival_prob=0.01,
                                seed=0, eval_interval_slots=200)
        sweep = fig6_arrival_sweep(arrival_probs=(0.001, 0.05), scale=scale)
        assert set(sweep) == {"online", "immediate", "offline"}
        for series in sweep.values():
            assert len(series) == 2
            assert all(len(point) == 3 for point in series)

    def test_fig5c_table_structure(self):
        scale = ExperimentScale(num_users=5, total_slots=400, app_arrival_prob=0.01,
                                seed=0, eval_interval_slots=200)
        table = fig5c_time_to_accuracy(targets=(0.2,), seeds=(0,), scale=scale)
        assert set(table) == {"online", "offline", "immediate", "sync"}
        for per_target in table.values():
            assert list(per_target) == [0.2]
            assert len(per_target[0.2]) == 1

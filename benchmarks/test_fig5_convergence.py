"""Benchmark: reproduce Fig. 5 (gradient staleness and convergence).

Fig. 5 fixes the online scheme at V=4000, Lb=500 and compares against the
Offline, Immediate and Sync-SGD schemes on identical workloads:

* (a) traces of the gradient gap for Sync vs ASync aggregation, plus the
  positive correlation between lag and gradient gap;
* (b) test accuracy over wall-clock time for the four schemes;
* (c) wall-clock time to reach fixed accuracy objectives;
* (d) traces (and variance) of the per-user gradient gaps.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import print_artifact
from repro.analysis.experiments import fig5_convergence, fig5c_time_to_accuracy
from repro.analysis.reporting import format_table

#: Accuracy objectives; the benchmark scale reaches the lower ones reliably.
TARGETS = (0.30, 0.40, 0.45, 0.50)


@pytest.fixture(scope="module")
def runs(bench_scale):
    """Run the four schemes once on identical workloads."""
    return fig5_convergence(bench_scale, v=4000.0, staleness_bound=500.0)


def test_fig5a_gap_traces_sync_vs_async(benchmark, runs):
    def extract():
        online = runs["online"].trace
        sync = runs["sync"].trace
        lags = np.array(online.update_lags(), dtype=float)
        gaps = np.array(online.update_gaps(), dtype=float)
        correlation = 0.0
        if lags.std() > 0 and gaps.std() > 0:
            correlation = float(np.corrcoef(lags, gaps)[0, 1])
        return {
            "async_gaps": gaps,
            "sync_gaps": np.array(sync.update_gaps(), dtype=float),
            "lag_gap_correlation": correlation,
        }

    data = benchmark(extract)
    rows = [
        ["async (online)", float(data["async_gaps"].mean()), float(data["async_gaps"].max())],
        ["sync", float(data["sync_gaps"].mean()), float(data["sync_gaps"].max())],
    ]
    print_artifact(
        "Fig. 5(a) — gradient-gap trace summary and lag/gap correlation",
        format_table(["aggregation", "mean gap", "max gap"], rows)
        + f"\nlag vs gap correlation (async): {data['lag_gap_correlation']:.3f}",
    )

    # Both schemes produced updates.
    assert data["async_gaps"].size > 0 and data["sync_gaps"].size > 0
    # The paper observes a positive correlation between lag and gradient gap.
    assert data["lag_gap_correlation"] > 0.2
    # Sync gaps follow a declining trend: the last quarter is below the first.
    sync_gaps = data["sync_gaps"]
    quarter = max(1, len(sync_gaps) // 4)
    assert sync_gaps[-quarter:].mean() <= sync_gaps[:quarter].mean()


def test_fig5b_convergence_speed(benchmark, runs):
    def extract():
        return {
            name: list(zip(result.accuracy.times(), result.accuracy.accuracies()))
            for name, result in runs.items()
        }

    curves = benchmark(extract)
    rows = [
        [name, runs[name].num_updates, runs[name].final_accuracy(), runs[name].total_energy_kj()]
        for name in ("online", "offline", "immediate", "sync")
    ]
    print_artifact(
        "Fig. 5(b) — convergence comparison (final state of each scheme)",
        format_table(["scheme", "updates", "final accuracy", "energy (kJ)"], rows),
    )

    online = runs["online"]
    offline = runs["offline"]
    immediate = runs["immediate"]
    sync = runs["sync"]
    # The asynchronous schemes converge to the same range (online within 15%
    # of immediate) while offline and sync fall behind.
    assert online.final_accuracy() >= immediate.final_accuracy() * 0.85
    assert min(online.final_accuracy(), immediate.final_accuracy()) > sync.final_accuracy()
    assert immediate.final_accuracy() >= offline.final_accuracy() * 0.9
    # The online scheme pays far less energy than immediate for that accuracy.
    assert online.energy_saving_vs(immediate) > 0.25
    # Every curve is recorded over the full horizon.
    assert all(len(curve) >= 3 for curve in curves.values())


def test_fig5c_time_to_accuracy(benchmark, bench_scale, bench_jobs):
    table = benchmark.pedantic(
        fig5c_time_to_accuracy,
        kwargs=dict(
            targets=TARGETS, seeds=(bench_scale.seed,), scale=bench_scale,
            jobs=bench_jobs,
        ),
        rounds=1,
        iterations=1,
    )

    rows = []
    for scheme, per_target in table.items():
        for target, times in per_target.items():
            rows.append([scheme, f"{target:.2f}", times[0]])
    print_artifact(
        "Fig. 5(c) — wall-clock time (s) to reach accuracy objectives "
        "('-' = never reached within the horizon)",
        format_table(["scheme", "accuracy objective", "time (s)"], rows, float_format=".0f"),
    )

    lowest = TARGETS[0]
    immediate_time = table["immediate"][lowest][0]
    online_time = table["online"][lowest][0]
    offline_time = table["offline"][lowest][0]
    sync_time = table["sync"][lowest][0]
    # The asynchronous schemes reach the lowest objective.
    assert immediate_time is not None and online_time is not None
    # Immediate is the fastest (or ties); offline/sync are slower or never arrive.
    assert immediate_time <= online_time * 1.05
    if offline_time is not None:
        assert offline_time >= online_time
    if sync_time is not None:
        assert sync_time >= immediate_time


def test_fig5d_per_user_gap_traces(benchmark, runs):
    def extract():
        return {
            name: runs[name].trace.gap_variance_across_users()
            for name in ("online", "offline", "immediate")
        }

    variances = benchmark(extract)
    print_artifact(
        "Fig. 5(d) — variance of per-user gradient gaps",
        format_table(
            ["scheme", "variance of per-user mean gap"],
            [[name, value] for name, value in variances.items()],
            float_format=".4f",
        ),
    )

    # Immediate scheduling keeps every user fresh: smallest variance.
    assert variances["immediate"] <= variances["online"] + 1e-9
    assert variances["immediate"] <= variances["offline"] + 1e-9
    # The offline scheme, which defers aggressively, shows the most dispersion.
    assert variances["offline"] >= variances["online"] * 0.5

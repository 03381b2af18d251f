"""Experiment runners and reporting for the paper's tables and figures.

:mod:`repro.analysis.experiments` contains one runner per evaluation
artefact (Table II, Table III, Fig. 1, Fig. 2, Fig. 4a-d, Fig. 5a-d,
Fig. 6a-b).  Each runner returns plain data structures (lists of rows or
series) so the benchmark suite, the examples and downstream notebooks can
render or assert on them without re-implementing the experiment logic.

:mod:`repro.analysis.reporting` renders those structures as fixed-width text
tables and CSV strings, which is how the benchmark harness prints the
"same rows/series the paper reports".

:mod:`repro.analysis.runner` orchestrates grids of independent runs — the
Fig. 4/5/6 sweeps, ``repro-sim sweep`` — across ``multiprocessing`` workers
with disk-cached, reproducible summaries.
"""

from repro.analysis.runner import (
    ExperimentSuite,
    RunSpec,
    RunSummary,
    make_policy,
    run_spec,
    summarize_result,
    sweep_grid,
)
from repro.analysis.experiments import (
    ExperimentScale,
    fig1_power_schedules,
    fig2_fps_traces,
    fig4_v_sweep,
    fig5_convergence,
    fig5c_time_to_accuracy,
    fig6_arrival_sweep,
    paper_config,
    run_policy,
    table2_rows,
    table3_overhead_rows,
)
from repro.analysis.reporting import format_table

__all__ = [
    "ExperimentScale",
    "ExperimentSuite",
    "RunSpec",
    "RunSummary",
    "fig1_power_schedules",
    "fig2_fps_traces",
    "fig4_v_sweep",
    "fig5_convergence",
    "fig5c_time_to_accuracy",
    "fig6_arrival_sweep",
    "format_table",
    "make_policy",
    "paper_config",
    "run_policy",
    "run_spec",
    "summarize_result",
    "sweep_grid",
    "table2_rows",
    "table3_overhead_rows",
]

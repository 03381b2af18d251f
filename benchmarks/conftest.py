"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints the
corresponding rows/series.  The simulations run at ``ExperimentScale.benchmark``
(25 users, 1-hour horizon, arrival probability scaled up 3x) so the whole
suite completes in minutes on a laptop; EXPERIMENTS.md records how the scaled
numbers map onto the paper's 3-hour testbed results.  Set the environment
variable ``REPRO_BENCH_SCALE=paper`` to run at the full Section VII scale
and ``REPRO_BENCH_JOBS=N`` to fan grid-shaped benchmarks across processes.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.experiments import ExperimentScale


def _selected_scale(seed: int = 0) -> ExperimentScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "benchmark").lower()
    if name == "paper":
        return ExperimentScale.paper(seed=seed)
    if name == "smoke":
        return ExperimentScale.smoke(seed=seed)
    return ExperimentScale.benchmark(seed=seed)


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    """The simulation scale used by every simulation-backed benchmark."""
    return _selected_scale()


@pytest.fixture(scope="session")
def bench_jobs() -> int:
    """Worker processes for the grid-shaped benchmarks (Fig. 4/5c/6).

    Set ``REPRO_BENCH_JOBS=N`` to fan the independent runs of a sweep across
    ``N`` processes (``0`` = one per CPU core).  Results are identical to
    the sequential default — only the wall-clock changes.
    """
    return int(os.environ.get("REPRO_BENCH_JOBS", "1"))


#: Directory where every reproduced table/figure is persisted as plain text.
ARTIFACT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "benchmark_artifacts")


def _slug(title: str) -> str:
    keep = [c.lower() if c.isalnum() else "_" for c in title]
    slug = "".join(keep)
    while "__" in slug:
        slug = slug.replace("__", "_")
    return slug.strip("_")[:80]


def print_artifact(title: str, body: str) -> None:
    """Print a reproduced artefact and persist it under ``benchmark_artifacts/``.

    pytest captures stdout of passing tests, so the artefacts are also written
    to disk; that is what EXPERIMENTS.md links to.
    """
    line = "=" * 78
    text = f"{line}\n{title}\n{line}\n{body}\n"
    print("\n" + text)
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    with open(os.path.join(ARTIFACT_DIR, _slug(title) + ".txt"), "w") as handle:
        handle.write(text)

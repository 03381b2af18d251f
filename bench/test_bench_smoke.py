"""Smoke test of the benchmark: every workload once at the ``smoke`` size.

Checks the shape of what the harness reports and the structural predictions
the README makes (which spans a workload cannot reach); the timings
themselves mean nothing at this size.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Tuple

import pytest

from bench.measure import END_TO_END, manifest, measure
from bench.trace import ROOT, SPANS, layer_metric_specs
from bench.workloads import CKPT_PREFIX, REPO_ROOT, WORKLOADS

IPC_SPANS = [span for span in SPANS if span.startswith(("sim.shard.ipc.", "sim.shmplane."))]
CHECKPOINT_SPANS = [span for span in SPANS if span.startswith(("service.checkpoint.", "metrics."))]
#: The one checkpoint span a sharded run reaches too: its supervisor keeps an
#: in-memory rollback point, assembled by the code that assembles a snapshot.
CAPTURE = "service.checkpoint.capture"


@pytest.fixture(scope="module")
def runs() -> Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]]:
    """(untraced, traced) measurement of every workload, shortest possible."""
    return {
        name: (
            measure(name, seed=0, seconds=0.0, trace=False, scale="smoke"),
            measure(name, seed=0, seconds=0.0, trace=True, scale="smoke"),
        )
        for name in WORKLOADS
    }


def test_benchmark_json_is_the_manifest() -> None:
    recorded = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert recorded == manifest()
    assert len(recorded["per_layer"]) <= 128


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_named_metric_is_reported_and_every_check_passes(runs: Any, name: str) -> None:
    plain, traced = runs[name]
    for run in (plain, traced):
        assert run["correct"] and run["failed"] == 0, run["detail"]["failed_checks"]
        assert run["attempted"] >= 1
    assert {key: entry["unit"] for key, entry in plain["metrics"].items()} == {
        key: unit for key, unit, _, _ in END_TO_END
    }
    assert all(entry["value"] > 0 for entry in plain["metrics"].values())
    assert {key: entry["unit"] for key, entry in traced["metrics"].items()} == {
        key: unit for key, unit, _ in layer_metric_specs()
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_spans_a_workload_cannot_reach_have_no_calls(runs: Any, name: str) -> None:
    layer = {key: entry["value"] for key, entry in runs[name][1]["metrics"].items()}
    assert layer[f"{ROOT}.calls"] >= 1
    assert layer["sim.shard.drive_fleet_loop.calls"] == layer[f"{ROOT}.calls"]
    for span in IPC_SPANS:
        assert (layer[f"{span}.calls"] > 0) == WORKLOADS[name].sharded, span
    for span in CHECKPOINT_SPANS:
        reached = name.endswith(".ckpt") or (span == CAPTURE and WORKLOADS[name].sharded)
        assert (layer[f"{span}.calls"] > 0) == reached, span


def test_execution_modes_of_the_same_inputs_simulate_the_same_thing(runs: Any) -> None:
    for name, workload in WORKLOADS.items():
        if workload.same_as is not None:
            assert runs[name][0]["detail"]["digest"] == runs[workload.same_as][0]["detail"]["digest"]


def test_checkpoint_scratch_space_is_removed(runs: Any) -> None:
    assert not list(REPO_ROOT.glob(CKPT_PREFIX + "*"))

"""Shared fixtures for the test suite.

Simulation runs are comparatively expensive, so the fixtures that run full
(smoke-scale) simulations are session-scoped and shared across the
integration tests that assert on different aspects of the same run.
"""

from __future__ import annotations

import glob
import multiprocessing
import os

import numpy as np
import pytest

from repro.core.online import OnlinePolicy
from repro.core.policies import ImmediatePolicy
from repro.energy.measurements import MeasurementTable
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine, SimulationResult


def _live_children() -> set:
    """Pids of this process's live (non-zombie) children, read from /proc.

    multiprocessing's own long-lived helpers (the shared-memory resource
    tracker, a forkserver) are not test leftovers and are left out.
    """
    helpers = set()
    from multiprocessing import forkserver, resource_tracker

    for pid in (
        getattr(resource_tracker._resource_tracker, "_pid", None),
        getattr(forkserver._forkserver, "_forkserver_pid", None),
    ):
        if pid is not None:
            helpers.add(pid)
    me, children = os.getpid(), set()
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat, encoding="utf-8") as handle:
                state, ppid = handle.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
        if int(ppid) == me and state != "Z":
            children.add(int(stat.split("/")[2]))
    return children - helpers


def _shm_segments() -> set:
    """Mailbox segments in /dev/shm owned by this process or by a process
    that is gone (a killed worker or subprocess); segments of other live
    processes on the host are not this suite's."""
    from repro.sim.shmplane import SEGMENT_PREFIX

    me, ours = os.getpid(), set()
    for path in glob.glob(f"/dev/shm/{SEGMENT_PREFIX}_*"):
        try:
            owner = int(os.path.basename(path).split("_")[1])
        except (IndexError, ValueError):
            continue
        if owner == me or not os.path.exists(f"/proc/{owner}"):
            ours.add(path)
    return ours


@pytest.fixture(scope="session", autouse=True)
def no_leaked_processes_or_segments():
    """Fail the run if the suite leaves a live child process (a shard
    worker, a ``repro-sim serve`` subprocess) or a shared-memory mailbox."""
    segments_before = _shm_segments()
    yield
    multiprocessing.active_children()  # reap finished workers
    children = _live_children()
    segments = sorted(_shm_segments() - segments_before)
    assert not children, f"tests left live child processes: {sorted(children)}"
    assert not segments, f"tests left shared-memory segments: {segments}"


@pytest.fixture(scope="session")
def table() -> MeasurementTable:
    """The Table II/III calibration data."""
    return MeasurementTable()


@pytest.fixture(scope="session")
def smoke_config() -> SimulationConfig:
    """A seconds-scale simulation configuration used by integration tests.

    The synthetic task is made easier than the paper-scale default (single
    Gaussian cluster per class, higher learning rate) so that the few dozen
    updates a 700-slot run produces already move accuracy well above chance.
    """
    return SimulationConfig(
        num_users=6,
        total_slots=700,
        app_arrival_prob=0.01,
        seed=7,
        num_train_samples=600,
        num_test_samples=300,
        eval_interval_slots=350,
        trace_interval_slots=10,
        class_separation=2.5,
        clusters_per_class=1,
        label_noise=0.0,
        learning_rate=0.05,
    )


@pytest.fixture(scope="session")
def immediate_result(smoke_config) -> SimulationResult:
    """One smoke-scale run of the Immediate policy."""
    return SimulationEngine(smoke_config, ImmediatePolicy()).run()


@pytest.fixture(scope="session")
def online_result(smoke_config) -> SimulationResult:
    """One smoke-scale run of the online policy at V=4000, Lb=500."""
    policy = OnlinePolicy(v=4000.0, staleness_bound=500.0)
    return SimulationEngine(smoke_config, policy).run()


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator for unit tests."""
    return np.random.default_rng(123)


def make_observation(**overrides):
    """Build a DeviceObservation with Pixel 2 defaults for policy unit tests."""
    from oracle import DeviceObservation

    return DeviceObservation(**overrides)


@pytest.fixture()
def observation_factory():
    """Factory fixture wrapping :func:`make_observation`."""
    return make_observation

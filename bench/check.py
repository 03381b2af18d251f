"""Output checks: a digest of everything a run simulated, and invariants on it.

No absolute expected value is hard-coded — training bits depend on the BLAS
build — so every check is either an invariant of one result or an equality
between two results of the same inputs.
"""

from __future__ import annotations

import glob
import hashlib
import math
import os
from typing import Dict, List, Tuple

import numpy as np

from repro.sim.engine import SimulationResult
from repro.sim.shmplane import SEGMENT_PREFIX

Check = Tuple[str, bool]


def _user_energy_j(result: SimulationResult) -> np.ndarray:
    acc = result.accountant
    return acc.idle_j + acc.app_j + acc.training_j + acc.corunning_j + acc.overhead_j


def digest(result: SimulationResult) -> str:
    """sha256 over the simulated statistics of one run, bit-exact.

    Covers total energy, per-user energy totals, decision counters, the
    order, lag and gap of every applied update, the queue and virtual-queue
    series (or their streamed summaries under ``summary`` tracing) and the
    accuracy curve.  Two execution modes that honour the repo's bitwise
    contract produce the same digest for the same inputs.
    """
    h = hashlib.sha256()

    def feed(*values: object) -> None:
        for value in values:
            h.update(value.hex().encode() if isinstance(value, float) else repr(value).encode())
            h.update(b";")

    feed(result.total_energy_j(), result.num_updates, result.decision_evaluations)
    h.update(np.ascontiguousarray(_user_energy_j(result), dtype=np.float64).tobytes())
    feed(sorted(result.trace.decisions.items()), result.trace.corun_jobs)
    for update in result.trace.update_samples:
        feed(update.user_id, update.lag, float(update.gradient_gap), float(update.time_s))
    for series in (result.queue_history, result.virtual_queue_history):
        h.update(np.asarray(series, dtype=np.float64).tobytes())
    feed(sorted((result.queue_stats or {}).items()))
    for sample in result.accuracy.samples:
        feed(float(sample.time_s), float(sample.accuracy), float(sample.loss), sample.num_updates)
    return h.hexdigest()


def result_checks(label: str, result: SimulationResult) -> List[Check]:
    """Invariants every single result must satisfy."""
    total = result.total_energy_j()
    per_user = float(np.sum(_user_energy_j(result)))
    queues = list(result.queue_history) + list(result.virtual_queue_history)
    queues += list((result.queue_stats or {}).values())
    return [
        (
            f"{label}: per-user energies sum to the total",
            total > 0 and math.isclose(per_user, total, rel_tol=1e-9),
        ),
        (f"{label}: Q(t), H(t) >= 0", all(value >= 0.0 for value in queues)),
    ]


def shm_check() -> Check:
    """No shard mailbox of this process may outlive its run."""
    leaked = glob.glob(f"/dev/shm/{SEGMENT_PREFIX}_{os.getpid()}_*")
    return ("no reproshard segment left in /dev/shm", not leaked)


def sim_counts(results: Dict[str, SimulationResult]) -> Dict[str, float]:
    """Exact simulated work of one repetition, summed over its runs."""
    return {
        "user_slots": sum(r.config.num_users * r.config.total_slots for r in results.values()),
        "sim_updates": sum(r.num_updates for r in results.values()),
        "sim_energy_kj": sum(r.total_energy_kj() for r in results.values()),
        "sim_decisions": sum(sum(r.trace.decisions.values()) for r in results.values()),
    }

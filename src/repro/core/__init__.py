"""The paper's contribution: staleness metrics, offline and online schedulers.

* :mod:`repro.core.staleness` — lag (Definition 1), gradient gap
  (Definition 2, Eq. 2/4) and linear weight prediction (Eq. 3).
* :mod:`repro.core.queues` — the task queue ``Q(t)`` (Eq. 15), the virtual
  staleness queue ``H(t)`` (Eq. 16), and the Lyapunov function/drift
  machinery of Lemma 2.
* :mod:`repro.core.policies` — the scheduling-policy interface plus the
  Immediate and Sync-SGD baselines used in the evaluation.
* :mod:`repro.core.offline` — the offline knapsack problem P1, the Lemma 1
  lag bound, and the dynamic-programming solver of Algorithm 1.
* :mod:`repro.core.online` — the Lyapunov drift-plus-penalty online
  scheduler of Algorithm 2 (Eq. 21–23), centralized or distributed.
* :mod:`repro.core.tradeoff` — Theorem 1's ``[O(1/V), O(V)]`` bounds and
  helpers for analysing the measured energy–staleness trade-off.
"""

from repro.core.offline import KnapsackItem, KnapsackSolver, OfflinePolicy, lag_upper_bound
from repro.core.online import OnlineController, OnlinePolicy
from repro.core.policies import (
    Decision,
    ImmediatePolicy,
    SchedulingPolicy,
    SlotContext,
    SyncPolicy,
)
from repro.core.queues import LyapunovAnalyzer, TaskQueue, VirtualQueue
from repro.core.staleness import (
    gradient_gap,
    gradient_gap_from_params,
    linear_weight_prediction,
)
from repro.core.tradeoff import TradeoffAnalyzer, theorem1_energy_bound, theorem1_queue_bound

__all__ = [
    "Decision",
    "ImmediatePolicy",
    "KnapsackItem",
    "KnapsackSolver",
    "LyapunovAnalyzer",
    "OfflinePolicy",
    "OnlineController",
    "OnlinePolicy",
    "SchedulingPolicy",
    "SlotContext",
    "SyncPolicy",
    "TaskQueue",
    "TradeoffAnalyzer",
    "VirtualQueue",
    "gradient_gap",
    "gradient_gap_from_params",
    "lag_upper_bound",
    "linear_weight_prediction",
    "theorem1_energy_bound",
    "theorem1_queue_bound",
]

"""Reproduction of "Energy Minimization for Federated Asynchronous Learning
on Battery-Powered Mobile Devices via Application Co-running" (ICDCS 2022).

The package is organised around three layers:

``repro.device`` / ``repro.energy``
    A mobile-device substrate: big.LITTLE CPU models, a foreground-application
    catalog, and a power model calibrated against the paper's Table II/III
    measurements (four power levels ``P_a' > P_a > P_b > P_d`` per device).

``repro.fl``
    A from-scratch federated-learning substrate: NumPy neural networks,
    momentum SGD, a parameter server with synchronous (FedAvg) and
    asynchronous update rules, and staleness bookkeeping.

``repro.core`` / ``repro.sim``
    The paper's contribution: staleness metrics (lag, gradient gap), the
    offline knapsack scheduler (Algorithm 1), the Lyapunov online scheduler
    (Algorithm 2), baseline policies, and the slotted simulation engine that
    ties everything together for the Section VII evaluation.

Quickstart::

    from repro import SimulationConfig, SimulationEngine, OnlinePolicy

    config = SimulationConfig(num_users=10, total_slots=2000, seed=1)
    engine = SimulationEngine(config, policy=OnlinePolicy(v=4000.0, staleness_bound=500.0))
    result = engine.run()
    print(result.total_energy_kj(), result.final_accuracy())
"""

from repro.core.offline import KnapsackSolver, OfflinePolicy, lag_upper_bound
from repro.core.online import OnlineController, OnlinePolicy
from repro.core.policies import (
    Decision,
    ImmediatePolicy,
    SchedulingPolicy,
    SyncPolicy,
)
from repro.core.queues import LyapunovAnalyzer, TaskQueue, VirtualQueue
from repro.core.staleness import gradient_gap
from repro.device.apps import APP_CATALOG, AppSpec
from repro.device.models import DEVICE_CATALOG, DeviceSpec
from repro.energy.power_model import PowerModel
from repro.fl.server import ParameterServer
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine, SimulationResult

__version__ = "1.0.0"

__all__ = [
    "APP_CATALOG",
    "AppSpec",
    "DEVICE_CATALOG",
    "Decision",
    "DeviceSpec",
    "ImmediatePolicy",
    "KnapsackSolver",
    "LyapunovAnalyzer",
    "OfflinePolicy",
    "OnlineController",
    "OnlinePolicy",
    "ParameterServer",
    "PowerModel",
    "SchedulingPolicy",
    "SimulationConfig",
    "SimulationEngine",
    "SimulationResult",
    "SyncPolicy",
    "TaskQueue",
    "VirtualQueue",
    "gradient_gap",
    "lag_upper_bound",
    "__version__",
]

"""Federated-learning substrate: NumPy neural networks, clients and server.

The paper trains LeNet-5 on CIFAR-10 with DL4J/OpenBLAS on the devices and a
Python HTTP parameter server.  This subpackage rebuilds that stack from
scratch in NumPy:

* :mod:`repro.fl.layers` / :mod:`repro.fl.model` — layers with explicit
  forward/backward passes, a ``Sequential`` container with flat-parameter
  views, and LeNet-5 / MLP builders.
* :mod:`repro.fl.dataset` — a synthetic CIFAR-10-like dataset (offline
  substitution for the real download) with IID and Dirichlet non-IID
  partitioning across users.
* :mod:`repro.fl.optimizer` — momentum SGD exactly as Eq. (1).
* :mod:`repro.fl.client` — local training of the participants, as one
  column plane per user range.
* :mod:`repro.fl.server` — the parameter server with synchronous (FedAvg)
  and asynchronous update rules plus version/lag bookkeeping.
* :mod:`repro.fl.metrics` — accuracy/loss evaluation and convergence-time
  extraction used in Fig. 5/6.
"""

from repro.fl.client import FLClient, LocalUpdate
from repro.fl.dataset import (
    Partition,
    SyntheticCifar10,
    partition_dirichlet,
    partition_iid,
)
from repro.fl.metrics import AccuracyTracker, evaluate_model, time_to_accuracy
from repro.fl.model import Sequential, build_lenet5, build_mlp
from repro.fl.optimizer import MomentumSGD
from repro.fl.server import AsyncUpdateRule, ParameterServer, ServerUpdate

__all__ = [
    "AccuracyTracker",
    "AsyncUpdateRule",
    "FLClient",
    "LocalUpdate",
    "MomentumSGD",
    "ParameterServer",
    "Partition",
    "Sequential",
    "ServerUpdate",
    "SyntheticCifar10",
    "build_lenet5",
    "build_mlp",
    "evaluate_model",
    "partition_dirichlet",
    "partition_iid",
    "time_to_accuracy",
]

"""Slotted simulation of the federated mobile system (Section VII.B).

The evaluation of the paper is a slot-based simulation driven by the real
measurements of Table II: 25 users, each holding a device sampled from the
testbed and an equal shard of the dataset, application arrivals with
probability 0.001 per 1-second slot, and a 3-hour horizon.  This subpackage
provides that simulator:

* :mod:`repro.sim.config` — the :class:`SimulationConfig` dataclass.
* :mod:`repro.sim.arrivals` — Bernoulli and diurnal application arrival
  processes, pre-generated so the offline policy can use them as an oracle.
* :mod:`repro.sim.trace` — per-slot traces (energy, queues, gaps, accuracy).
* :mod:`repro.sim.engine` — the engine tying devices, the FL substrate and
  the scheduling policy together; returns a :class:`SimulationResult`.
* :mod:`repro.sim.fleet` — the vectorized struct-of-arrays fleet kernels
  the engine runs on, held bitwise-equal by the test suite to a per-user
  reference loop (``tests/reference_loop.py``, not part of the package).
* :mod:`repro.sim.coupling` — the coordinator-side coupling state (the
  paper's server-routed cross-user state) and its staged slot kernels.
* :mod:`repro.sim.shard` — the sharded fleet engine: contiguous population
  shards in worker processes, bitwise-identical for any shard count.
* :mod:`repro.sim.rng` — seeded random-generator helpers.

:class:`repro.sim.shard.ShardedEngine` is imported lazily (not re-exported
here) so that importing the subpackage stays cheap.
"""

from repro.sim.arrivals import ArrivalSchedule, BernoulliArrivalProcess, DiurnalArrivalProcess
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine, SimulationResult
from repro.sim.fleet import FleetEnergyAccountant, FleetState
from repro.sim.rng import spawn_generators
from repro.sim.trace import SimulationTrace

__all__ = [
    "ArrivalSchedule",
    "BernoulliArrivalProcess",
    "DiurnalArrivalProcess",
    "FleetEnergyAccountant",
    "FleetState",
    "SimulationConfig",
    "SimulationEngine",
    "SimulationResult",
    "SimulationTrace",
    "spawn_generators",
]

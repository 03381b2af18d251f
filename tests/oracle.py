"""The one entry point through which the suite reaches the reference oracle.

Equivalence matrices name their execution modes ``"loop"`` (the per-user
reference loop, :class:`repro.sim.reference.ReferenceLoopEngine`) and
``"fleet"`` (the product engine, with or without fast-forward); this helper
turns a mode name into an engine so the parametrisation ids stay what they
always were while the product engine itself has no mode switch.
"""

from __future__ import annotations

from repro.sim.engine import SimulationEngine
from repro.sim.reference import ReferenceLoopEngine


def make_engine(mode: str, config, policy, fast_forward: bool = True, **kwargs):
    """An engine for ``mode``; ``fast_forward`` only means something to ``fleet``."""
    if mode == "loop":
        return ReferenceLoopEngine(config, policy, **kwargs)
    if mode == "fleet":
        return SimulationEngine(config, policy, fast_forward=fast_forward, **kwargs)
    raise ValueError(f"unknown execution mode {mode!r}")

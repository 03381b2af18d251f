"""Carbon-footprint accounting for federated training.

The paper opens with the climate cost of large-scale learning ("Our planet is
in danger ... its energy footprint is growing at an unprecedented rate").
This module converts the simulator's energy totals into grams of CO2
equivalent using regional grid carbon intensities, so experiments can report
the climate impact of a scheduling policy alongside its joules, and
extrapolate a deployment's footprint from a single simulated fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["CarbonIntensity", "GRID_INTENSITIES", "CarbonAccountant"]


@dataclass(frozen=True)
class CarbonIntensity:
    """Grid carbon intensity in grams of CO2-equivalent per kWh."""

    region: str
    grams_per_kwh: float

    def __post_init__(self) -> None:
        if self.grams_per_kwh < 0:
            raise ValueError("grams_per_kwh must be non-negative")


#: Representative grid intensities (gCO2e/kWh), order-of-magnitude figures.
GRID_INTENSITIES: Dict[str, CarbonIntensity] = {
    "world_average": CarbonIntensity("world_average", 475.0),
    "us_average": CarbonIntensity("us_average", 380.0),
    "eu_average": CarbonIntensity("eu_average", 275.0),
    "coal_heavy": CarbonIntensity("coal_heavy", 820.0),
    "hydro": CarbonIntensity("hydro", 24.0),
}

_JOULES_PER_KWH = 3.6e6


class CarbonAccountant:
    """Convert energy into CO2-equivalent emissions.

    Args:
        intensity: grid carbon intensity; either a region key from
            :data:`GRID_INTENSITIES` or a :class:`CarbonIntensity`.
    """

    def __init__(self, intensity="world_average") -> None:
        if isinstance(intensity, str):
            if intensity not in GRID_INTENSITIES:
                raise KeyError(
                    f"unknown region {intensity!r}; known: {sorted(GRID_INTENSITIES)}"
                )
            intensity = GRID_INTENSITIES[intensity]
        self.intensity = intensity

    def grams_co2(self, energy_j: float) -> float:
        """CO2-equivalent grams for ``energy_j`` joules."""
        if energy_j < 0:
            raise ValueError("energy_j must be non-negative")
        return energy_j / _JOULES_PER_KWH * self.intensity.grams_per_kwh

    def grams_co2_from_result(self, result) -> float:
        """CO2-equivalent grams of a :class:`~repro.sim.engine.SimulationResult`."""
        return self.grams_co2(result.total_energy_j())

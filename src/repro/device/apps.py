"""Foreground-application catalog.

The paper selects eight popular Google Play applications that span the
interaction patterns a training task may co-run with (Section III.A, Fig. 1,
Table II): navigation (Maps/GPS), content feeds (Yahoo News), finance
(E-Trade/Coinbase), video streaming (YouTube, TikTok), conferencing (Zoom)
and gaming (Candy Crush, Angry Birds).

Each :class:`AppSpec` carries an *intensity class* that drives two secondary
effects observed in the measurements:

* **Observation 2** — intensive (gaming) apps slow background training by
  roughly 10–15% due to resource contention; lightweight apps do not.
* **Observation 3** — the foreground frame rate is essentially unaffected by
  co-running; the nominal FPS per app feeds :mod:`repro.device.fps`.

The per-device power numbers live in :mod:`repro.energy.measurements`; this
module holds the device-independent attributes and the runtime representation
of an application occurrence (:class:`ForegroundApp`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "AppIntensity",
    "AppSpec",
    "APP_CATALOG",
    "ForegroundApp",
    "app_pool",
]


class AppIntensity(str, Enum):
    """Coarse resource-intensity class of a foreground application."""

    LIGHT = "light"
    MODERATE = "moderate"
    INTENSIVE = "intensive"


@dataclass(frozen=True)
class AppSpec:
    """Device-independent description of one foreground application.

    Attributes:
        name: canonical lower-case name matching the Table II columns.
        display_name: human-readable name as printed in the paper's figures.
        category: Play-store style category.
        intensity: coarse CPU/GPU intensity class.
        nominal_fps: steady-state frame rate when running alone (Fig. 2 shows
            ~60 FPS for games and ~30 FPS for short-video apps).
        training_slowdown: multiplicative slowdown of the background training
            task while co-running (Observation 2): 1.0 for lightweight apps,
            ~1.10-1.15 for intensive ones.
        interactive: whether the app requires continuous user interaction
            (affects the FPS trace shape, not the energy model).
    """

    name: str
    display_name: str
    category: str
    intensity: AppIntensity
    nominal_fps: float
    training_slowdown: float
    interactive: bool


#: The eight applications of Table II / Fig. 1, keyed by canonical name.
APP_CATALOG: Dict[str, AppSpec] = {
    "map": AppSpec(
        "map", "GPS/Maps", "navigation", AppIntensity.MODERATE,
        nominal_fps=60.0, training_slowdown=1.05, interactive=True,
    ),
    "news": AppSpec(
        "news", "Yahoo News", "news", AppIntensity.LIGHT,
        nominal_fps=60.0, training_slowdown=1.0, interactive=True,
    ),
    "etrade": AppSpec(
        "etrade", "E-Trade", "finance", AppIntensity.LIGHT,
        nominal_fps=60.0, training_slowdown=1.0, interactive=True,
    ),
    "youtube": AppSpec(
        "youtube", "YouTube", "video", AppIntensity.MODERATE,
        nominal_fps=30.0, training_slowdown=1.05, interactive=False,
    ),
    "tiktok": AppSpec(
        "tiktok", "TikTok", "video", AppIntensity.MODERATE,
        nominal_fps=30.0, training_slowdown=1.05, interactive=True,
    ),
    "zoom": AppSpec(
        "zoom", "Zoom", "conferencing", AppIntensity.MODERATE,
        nominal_fps=30.0, training_slowdown=1.05, interactive=False,
    ),
    "candycrush": AppSpec(
        "candycrush", "Candy Crush", "gaming", AppIntensity.INTENSIVE,
        nominal_fps=60.0, training_slowdown=1.15, interactive=True,
    ),
    "angrybird": AppSpec(
        "angrybird", "Angry Birds", "gaming", AppIntensity.INTENSIVE,
        nominal_fps=60.0, training_slowdown=1.10, interactive=True,
    ),
}


@dataclass
class ForegroundApp:
    """A concrete occurrence of an application on a device at runtime.

    Attributes:
        spec: the catalog entry.
        arrival_slot: simulation slot at which the user launched the app.
        duration_slots: how many slots the app runs for.  The paper assumes
            the application lasts as long as the training task when co-run;
            the simulator uses the per-device Table II co-running time.
    """

    spec: AppSpec
    arrival_slot: int
    duration_slots: int

    @property
    def name(self) -> str:
        """Canonical application name."""
        return self.spec.name

    def end_slot(self) -> int:
        """First slot at which the application is no longer running."""
        return self.arrival_slot + self.duration_slots


def app_pool(
    names: Optional[Sequence[str]] = None,
    weights: Optional[Sequence[float]] = None,
) -> Tuple[List[AppSpec], Optional[List[float]]]:
    """The applications a launch picks from, and their normalised weights.

    The Section VII evaluation chooses "uniformly randomly from the 8
    representative applications" (``weights`` ``None``); weighted picks
    support the diurnal usage-pattern extension.  Everything a weighted
    ``Generator.choice`` would refuse is refused here, before any draw.
    """
    pool: List[str] = list(names) if names is not None else list(APP_CATALOG)
    for name in pool:
        if name not in APP_CATALOG:
            raise KeyError(f"unknown app {name!r}; known: {sorted(APP_CATALOG)}")
    if not pool:
        raise ValueError("need at least one app to pick from")
    specs = [APP_CATALOG[name] for name in pool]
    if weights is None:
        return specs, None
    if len(weights) != len(pool):
        raise ValueError("weights must match the number of apps")
    if not all(math.isfinite(w) and w >= 0 for w in weights):
        raise ValueError("weights must be finite and non-negative")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    return specs, [w / total for w in weights]

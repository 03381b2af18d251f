"""Network-condition model for the participating devices.

A device participates "when it becomes available depending on the network
condition or battery energy" (Section III.B).  The network model captures
the two connectivity classes the Android JobScheduler distinguishes (Wi-Fi
vs metered/4G), their typical uplink/downlink bandwidth and latency, and an
availability process so that experiments can make connectivity intermittent.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["NetworkType", "NetworkCondition", "NetworkModel"]


class NetworkType(str, Enum):
    """Connectivity class of a device."""

    WIFI = "wifi"
    LTE = "lte"
    OFFLINE = "offline"


@dataclass(frozen=True)
class NetworkCondition:
    """Instantaneous link characteristics.

    Attributes:
        network_type: connectivity class.
        uplink_mbps: uplink throughput in megabits per second.
        downlink_mbps: downlink throughput in megabits per second.
        rtt_ms: round-trip time in milliseconds.
    """

    network_type: NetworkType
    uplink_mbps: float
    downlink_mbps: float
    rtt_ms: float

    @property
    def connected(self) -> bool:
        """Whether the device can reach the parameter server."""
        return self.network_type is not NetworkType.OFFLINE


#: Typical link profiles used when sampling conditions.
DEFAULT_PROFILES: Dict[NetworkType, NetworkCondition] = {
    NetworkType.WIFI: NetworkCondition(NetworkType.WIFI, uplink_mbps=40.0, downlink_mbps=80.0, rtt_ms=15.0),
    NetworkType.LTE: NetworkCondition(NetworkType.LTE, uplink_mbps=10.0, downlink_mbps=30.0, rtt_ms=50.0),
    NetworkType.OFFLINE: NetworkCondition(NetworkType.OFFLINE, uplink_mbps=0.0, downlink_mbps=0.0, rtt_ms=0.0),
}


class NetworkModel:
    """Per-device connectivity process.

    Each device is assigned Wi-Fi with probability ``wifi_probability`` and
    LTE otherwise; at any slot it may additionally be offline with
    probability ``offline_probability`` (captive portals, elevators, airplane
    mode).  Bandwidths are jittered around the profile values.

    Args:
        rng: seeded random generator.
        wifi_probability: long-run fraction of devices on Wi-Fi.
        offline_probability: per-query probability of being disconnected.
        bandwidth_jitter: relative standard deviation applied to the profile
            bandwidths each time a condition is sampled.
        assignments: optional explicit home-network assignment per user id
            (``True`` = Wi-Fi, ``False`` = LTE).  Users covered by an
            assignment never consume an RNG draw for it; users beyond the
            sequence fall back to the stochastic ``wifi_probability``
            assignment.  The scenario compiler uses this to pin per-cohort
            connectivity deterministically.
    """

    def __init__(
        self,
        rng: Optional[np.random.Generator] = None,
        wifi_probability: float = 0.7,
        offline_probability: float = 0.0,
        bandwidth_jitter: float = 0.15,
        assignments: Optional[Sequence[bool]] = None,
    ) -> None:
        if not 0.0 <= wifi_probability <= 1.0:
            raise ValueError("wifi_probability must be in [0, 1]")
        if not 0.0 <= offline_probability < 1.0:
            raise ValueError("offline_probability must be in [0, 1)")
        self._rng = rng or np.random.default_rng(0)
        self.wifi_probability = wifi_probability
        self.offline_probability = offline_probability
        self.bandwidth_jitter = bandwidth_jitter
        self._assignment: Dict[int, NetworkType] = {}
        if assignments is not None:
            for user_id, wifi in enumerate(assignments):
                self._assignment[user_id] = (
                    NetworkType.WIFI if wifi else NetworkType.LTE
                )

    def assign(self, user_id: int) -> NetworkType:
        """Assign (and memoise) the home network type of ``user_id``."""
        if user_id not in self._assignment:
            wifi = self._rng.random() < self.wifi_probability
            self._assignment[user_id] = NetworkType.WIFI if wifi else NetworkType.LTE
        return self._assignment[user_id]

    def sample_block(
        self, user_ids: Sequence[int]
    ) -> Tuple[List[NetworkCondition], List[float]]:
        """The link profile (home network, or offline) and bandwidth-jitter
        factor of each user of ``user_ids``, sampled in order.

        One user's draws follow each other — offline check, home-network
        assignment the first time, jitter.  When none of the first two can
        interleave, the jitters of several users are one ``size=k`` draw:
        the same stream as ``k`` scalar draws.
        """
        if len(user_ids) > 1 and self.offline_probability == 0.0:
            try:
                profiles = [DEFAULT_PROFILES[self._assignment[user]] for user in user_ids]
            except KeyError:
                pass  # a home network still to be assigned
            else:
                draws = self._rng.normal(0.0, self.bandwidth_jitter, size=len(profiles))
                return profiles, np.maximum(1.0 + draws, 0.1).tolist()
        profiles, jitters = [], []
        for user in user_ids:
            if self.offline_probability > 0.0 and self._rng.random() < self.offline_probability:
                profiles.append(DEFAULT_PROFILES[NetworkType.OFFLINE])
                jitters.append(1.0)  # unused: nothing moves over a dead link
            else:
                profiles.append(DEFAULT_PROFILES[self.assign(user)])
                jitters.append(max(0.1, 1.0 + self._rng.normal(0.0, self.bandwidth_jitter)))
        return profiles, jitters

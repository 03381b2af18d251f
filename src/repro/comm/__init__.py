"""Communication substrate: simulated network and model transport.

The paper handles model exchange with asynchronous HTTP uploads/downloads of
a 2.5 MB serialized model over Wi-Fi or 4G (Section VI, Retrofit
``FileUploadService`` / ``FileDownloadService``).  This subpackage simulates
that path: network conditions (bandwidth, latency, availability), transfer
durations and energy, and typed message records so the simulation engine can
account for communication delay when it matters.
"""

from repro.comm.messages import TransferRecord
from repro.comm.network import NetworkCondition, NetworkModel
from repro.comm.transport import ModelTransport

__all__ = [
    "ModelTransport",
    "NetworkCondition",
    "NetworkModel",
    "TransferRecord",
]

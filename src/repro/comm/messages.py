"""The record of one simulated model transfer, and the model's size.

The paper's implementation packages model uploads/downloads as asynchronous
HTTP requests with meta information (device id, round number).  The transport
logs one row per simulated transfer; :class:`TransferRecord` is that row as
an object, so experiments can report communication volume and delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["TransferRecord"]

#: Serialized model size reported in the paper (Section VI).
DEFAULT_MODEL_SIZE_MB = 2.5


@dataclass(frozen=True)
class TransferRecord:
    """The outcome of one simulated transfer."""

    user_id: int
    direction: str
    size_mb: float
    start_time_s: float
    duration_s: float
    network_type: str
    succeeded: bool
    failure_reason: Optional[str] = None

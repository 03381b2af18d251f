"""Model transport: simulated upload/download of serialized models.

Converts the 2.5 MB model transfers of Section VI into durations (and
optionally radio energy) given the current :class:`~repro.comm.network.NetworkCondition`.
The simulation engine treats transfer durations below one slot as
instantaneous — with the paper's 1-second slots and Wi-Fi/LTE bandwidths a
2.5 MB transfer takes well under a slot, matching the paper's decision to
ignore communication time — but the transport keeps full records so that
low-bandwidth what-if studies remain possible.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.columns import ColumnLog
from repro.comm.messages import DEFAULT_MODEL_SIZE_MB, TransferRecord
from repro.comm.network import NetworkModel

__all__ = ["ModelTransport"]

#: Average radio power (W) attributed to an active transfer; used only for
#: the optional communication-energy accounting (the paper's energy figures
#: are CPU-dominated and exclude this term).
RADIO_POWER_W = {"wifi": 0.8, "lte": 1.8, "offline": 0.0}


class ModelTransport:
    """Simulate model uploads and downloads over the network model.

    Args:
        network: connectivity process (one per simulation).
        model_size_mb: serialized model size (2.5 MB in the paper).
        account_radio_energy: include radio energy in the transfer records.
    """

    def __init__(
        self,
        network: NetworkModel,
        model_size_mb: float = DEFAULT_MODEL_SIZE_MB,
        account_radio_energy: bool = False,
    ) -> None:
        if model_size_mb <= 0:
            raise ValueError("model_size_mb must be positive")
        self.network = network
        self.model_size_mb = model_size_mb
        self.account_radio_energy = account_radio_energy
        #: One row per transfer, in call order (read it as :attr:`records`).
        self.transfers = ColumnLog(
            user_id=np.int64,
            direction=object,
            size_mb=np.float64,
            start_time_s=np.float64,
            duration_s=np.float64,
            network_type=object,
            succeeded=np.bool_,
            failure_reason=object,
        )
        self.radio_energy_j = 0.0

    @property
    def records(self) -> List[TransferRecord]:
        """Every transfer so far, in call order."""
        return [TransferRecord(*row) for row in self.transfers.rows()]

    # -- duration model ------------------------------------------------------------

    @staticmethod
    def transfer_duration_s(size_mb: float, throughput_mbps: float, rtt_ms: float) -> float:
        """Duration of transferring ``size_mb`` at ``throughput_mbps``.

        ``size_mb`` is in megabytes, throughput in megabits per second; one
        round-trip of latency is added for the HTTP request/response.
        """
        if throughput_mbps <= 0:
            raise ValueError("cannot transfer over a disconnected link")
        return (size_mb * 8.0) / throughput_mbps + rtt_ms / 1000.0

    # -- public API ------------------------------------------------------------------

    def transfer_block(
        self, user_ids: Sequence[int], direction: str, time_s: float
    ) -> List[tuple]:
        """``user_ids`` each upload (or download) the model at ``time_s``, in
        order — one transfer after the other on the network's one stream,
        without a message, condition or record object per row.  Returns the
        logged rows."""
        upload = direction == "upload"
        size_mb = self.model_size_mb
        rows = []
        for user_id, profile, jitter in zip(user_ids, *self.network.sample_block(user_ids)):
            network_type = profile.network_type.value
            if not profile.connected:
                rows.append((user_id, direction, size_mb, time_s, 0.0, network_type, False, "offline"))
                continue
            mbps = (profile.uplink_mbps if upload else profile.downlink_mbps) * jitter
            duration = self.transfer_duration_s(size_mb, mbps, profile.rtt_ms)
            rows.append((user_id, direction, size_mb, time_s, duration, network_type, True, None))
            if self.account_radio_energy:
                self.radio_energy_j += RADIO_POWER_W[network_type] * duration
        self.transfers.extend_rows(rows)
        return rows

    # -- reporting --------------------------------------------------------------------

    def total_bytes_mb(self) -> float:
        """Total megabytes moved by successful transfers."""
        return sum(self._succeeded("size_mb"))

    def failure_count(self) -> int:
        """Number of failed transfers."""
        succeeded = self.transfers.column("succeeded")
        return int(succeeded.size - np.count_nonzero(succeeded))

    def mean_duration_s(self) -> float:
        """Mean duration of successful transfers (0 when none)."""
        durations = self._succeeded("duration_s")
        if not durations:
            return 0.0
        return sum(durations) / len(durations)

    def _succeeded(self, name: str) -> List[float]:
        """One column over the successful transfers, in call order."""
        return self.transfers.column(name)[self.transfers.column("succeeded")].tolist()

"""Tests for the simulated network and model transport."""

import numpy as np
import pytest

from repro.comm.messages import TransferRecord
from repro.comm.network import DEFAULT_PROFILES, NetworkCondition, NetworkModel, NetworkType
from repro.comm.transport import ModelTransport


def _transfer(transport, user_id, direction, time_s):
    """One user's transfer: a block of one, read back as its record."""
    return TransferRecord(*transport.transfer_block([user_id], direction, time_s)[0])


class TestNetworkModel:
    def test_assignment_is_sticky(self):
        model = NetworkModel(rng=np.random.default_rng(0), wifi_probability=0.5)
        first = model.assign(7)
        assert all(model.assign(7) == first for _ in range(10))

    def test_wifi_probability_extremes(self):
        all_wifi = NetworkModel(rng=np.random.default_rng(0), wifi_probability=1.0)
        all_lte = NetworkModel(rng=np.random.default_rng(0), wifi_probability=0.0)
        assert all(all_wifi.assign(u) is NetworkType.WIFI for u in range(20))
        assert all(all_lte.assign(u) is NetworkType.LTE for u in range(20))

    def test_condition_jitters_bandwidth(self):
        model = NetworkModel(rng=np.random.default_rng(1), wifi_probability=1.0)
        draws = [model.sample_block((0,)) for _ in range(20)]
        uplinks = {round(profile.uplink_mbps * jitter, 3) for (profile,), (jitter,) in draws}
        assert len(uplinks) > 1
        assert all(uplink > 0 for uplink in uplinks)

    def test_offline_probability(self):
        model = NetworkModel(
            rng=np.random.default_rng(2), wifi_probability=1.0, offline_probability=0.99
        )
        profiles = [model.sample_block((0,))[0][0] for _ in range(50)]
        assert any(not profile.connected for profile in profiles)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            NetworkModel(wifi_probability=1.5)
        with pytest.raises(ValueError):
            NetworkModel(offline_probability=1.0)

    def test_profiles_have_sane_ordering(self):
        wifi = DEFAULT_PROFILES[NetworkType.WIFI]
        lte = DEFAULT_PROFILES[NetworkType.LTE]
        assert wifi.uplink_mbps > lte.uplink_mbps
        assert wifi.rtt_ms < lte.rtt_ms
        assert not DEFAULT_PROFILES[NetworkType.OFFLINE].connected


class TestModelTransport:
    def _transport(self, **kwargs):
        network = NetworkModel(rng=np.random.default_rng(0), wifi_probability=1.0, **kwargs)
        return ModelTransport(network)

    def test_transfer_duration_formula(self):
        # 2.5 MB over 20 Mbps plus a 100 ms RTT = 1 s + 0.1 s.
        duration = ModelTransport.transfer_duration_s(2.5, 20.0, 100.0)
        assert duration == pytest.approx(1.1)
        with pytest.raises(ValueError):
            ModelTransport.transfer_duration_s(2.5, 0.0, 10.0)

    def test_upload_and_download_record(self):
        transport = self._transport()
        upload = _transfer(transport, 1, "upload", 5.0)
        download = _transfer(transport, 1, "download", 9.0)
        assert upload.succeeded and download.succeeded
        assert upload.direction == "upload"
        assert download.direction == "download"
        assert upload.start_time_s + upload.duration_s > 5.0
        assert transport.total_bytes_mb() == pytest.approx(5.0)
        assert transport.failure_count() == 0
        assert upload.duration_s > 0.0 and download.duration_s > 0.0

    def test_sub_slot_transfers_on_wifi(self):
        """With the paper's 2.5 MB model and Wi-Fi rates, transfers fit in a slot."""
        transport = self._transport()
        record = _transfer(transport, 0, "upload", 0.0)
        assert record.duration_s < 1.5

    def test_offline_transfer_fails(self):
        network = NetworkModel(
            rng=np.random.default_rng(0), wifi_probability=1.0, offline_probability=0.999999
        )
        transport = ModelTransport(network)
        record = _transfer(transport, 0, "upload", 0.0)
        assert not record.succeeded
        assert record.failure_reason == "offline"
        assert transport.failure_count() == 1

    def test_radio_energy_accounting(self):
        network = NetworkModel(rng=np.random.default_rng(0), wifi_probability=1.0)
        transport = ModelTransport(network, account_radio_energy=True)
        _transfer(transport, 0, "upload", 0.0)
        assert transport.radio_energy_j > 0.0

    def test_empty_transport_reports_nothing(self):
        transport = self._transport()
        assert transport.total_bytes_mb() == 0.0
        assert transport.failure_count() == 0

    def test_invalid_model_size(self):
        network = NetworkModel(rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            ModelTransport(network, model_size_mb=0.0)

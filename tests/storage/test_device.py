"""Tests for device models and the interference model."""

import pytest

from repro.common import GIB, MIB, SimClock
from repro.errors import ConfigError
from repro.storage import (
    NVM_SPEC,
    QLC_SPEC,
    SPECS_BY_CODE,
    TLC_SPEC,
    Device,
    DeviceSpec,
    fio_large_write_latency,
    fio_random_read_latency,
)


class TestDeviceSpec:
    def test_table1_read_latency_ordering(self):
        # NVM < TLC < QLC, roughly 15x NVM->QLC as in the paper.
        assert NVM_SPEC.read_latency_usec < TLC_SPEC.read_latency_usec < QLC_SPEC.read_latency_usec
        assert QLC_SPEC.read_latency_usec / NVM_SPEC.read_latency_usec == pytest.approx(15.0, rel=0.1)

    def test_table1_cost_ordering(self):
        assert NVM_SPEC.cost_per_gb > TLC_SPEC.cost_per_gb > QLC_SPEC.cost_per_gb
        assert NVM_SPEC.cost_per_gb / QLC_SPEC.cost_per_gb == pytest.approx(13.0, rel=0.01)

    def test_table1_endurance_ordering(self):
        assert NVM_SPEC.pe_cycles > TLC_SPEC.pe_cycles > QLC_SPEC.pe_cycles
        assert QLC_SPEC.pe_cycles == 200

    def test_fio_random_read_matches_table1(self):
        assert fio_random_read_latency(NVM_SPEC) == pytest.approx(26.0, rel=0.01)
        assert fio_random_read_latency(TLC_SPEC) == pytest.approx(195.0, rel=0.01)
        assert fio_random_read_latency(QLC_SPEC) == pytest.approx(391.0, rel=0.01)

    def test_fio_large_write_matches_table1_shape(self):
        # Within ~10% of the paper's 121/216/456 us column.
        assert fio_large_write_latency(NVM_SPEC) == pytest.approx(121.0, rel=0.1)
        assert fio_large_write_latency(TLC_SPEC) == pytest.approx(216.0, rel=0.1)
        assert fio_large_write_latency(QLC_SPEC) == pytest.approx(456.0, rel=0.1)

    def test_spec_registry_codes(self):
        assert SPECS_BY_CODE["N"].name == "NVM"
        assert SPECS_BY_CODE["T"].name == "TLC"
        assert SPECS_BY_CODE["Q"].name == "QLC"

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            DeviceSpec("bad", -1.0, 1.0, 1.0, 1.0, 0.1, 100)
        with pytest.raises(ConfigError):
            DeviceSpec("bad", 1.0, 1.0, 0.0, 1.0, 0.1, 100)
        with pytest.raises(ConfigError):
            DeviceSpec("bad", 1.0, 1.0, 1.0, 1.0, 0.1, 0)

    def test_read_time_scales_with_size(self):
        small = NVM_SPEC.read_time_usec(4096)
        large = NVM_SPEC.read_time_usec(1 * MIB)
        assert large > small


class TestDevice:
    def _device(self, spec=NVM_SPEC, capacity=GIB):
        clock = SimClock()
        return Device(spec, capacity, clock), clock

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigError):
            Device(NVM_SPEC, 0, SimClock())

    def test_foreground_read_returns_base_latency_when_idle(self):
        dev, _ = self._device()
        latency = dev.read(4096)
        assert latency == pytest.approx(NVM_SPEC.read_time_usec(4096))

    def test_read_rejects_negative_size(self):
        dev, _ = self._device()
        with pytest.raises(ValueError):
            dev.read(-1)

    def test_background_write_returns_zero_latency(self):
        dev, _ = self._device()
        assert dev.write(1 * MIB, foreground=False) == 0.0
        assert dev.stats.bytes_written_background == 1 * MIB

    def test_background_backlog_penalizes_foreground_reads(self):
        dev, _ = self._device(QLC_SPEC)
        idle_latency = dev.read(4096)
        dev.write(64 * MIB, foreground=False)
        busy_latency = dev.read(4096)
        assert busy_latency > idle_latency

    def test_backlog_drains_over_time(self):
        dev, clock = self._device(QLC_SPEC)
        dev.write(8 * MIB, foreground=False)
        assert dev.backlog_bytes > 0
        clock.advance(60_000_000.0)  # a minute of simulated time
        assert dev.backlog_bytes == 0.0

    def test_penalty_is_capped(self):
        dev, _ = self._device(QLC_SPEC)
        dev.write(10 * GIB, foreground=False)
        assert dev.queue_penalty_usec() <= 5_000.0

    def test_wear_accounting(self):
        dev, _ = self._device(capacity=1 * MIB)
        dev.write(2 * MIB, foreground=True)
        assert dev.wear_cycles == pytest.approx(2.0)

    def test_cost_scales_with_capacity(self):
        dev, _ = self._device(capacity=10 * GIB)
        assert dev.cost_dollars() == pytest.approx(13.0)  # 10 GiB * $1.3

    def test_stats_split_foreground_background(self):
        dev, _ = self._device()
        dev.read(100, foreground=True)
        dev.read(200, foreground=False)
        dev.write(300, foreground=True)
        dev.write(400, foreground=False)
        assert dev.stats.bytes_read_foreground == 100
        assert dev.stats.bytes_read_background == 200
        assert dev.stats.bytes_written_foreground == 300
        assert dev.stats.bytes_written_background == 400
        assert dev.stats.bytes_read == 300
        assert dev.stats.bytes_written == 700

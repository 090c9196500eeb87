"""Tests for the 3-year endurance provisioning rule."""

import pytest

from repro.common import GIB
from repro.storage import (
    DEFAULT_LIFETIME_SECONDS,
    NVM_SPEC,
    QLC_SPEC,
    device_lifetime_seconds,
    provision_capacity,
)


class TestProvisionCapacity:
    def test_no_writes_means_no_spare(self):
        result = provision_capacity(QLC_SPEC, 100 * GIB, 0.0)
        assert result.provisioned_bytes == 100 * GIB
        assert not result.lifetime_limited

    def test_cost_matches_capacity(self):
        result = provision_capacity(QLC_SPEC, 100 * GIB, 0.0)
        assert result.cost_dollars == pytest.approx(100 * QLC_SPEC.cost_per_gb)

    def test_heavy_writes_force_spare_capacity(self):
        # A tiny QLC level hammered with writes must be over-provisioned:
        # 1 GiB of data but 10 MiB/s of writes for 3 years = ~946 TB of
        # program traffic; at 200 P/E cycles that needs ~4.7 TB.
        rate = 10 * 1024 * 1024
        result = provision_capacity(QLC_SPEC, 1 * GIB, rate)
        assert result.lifetime_limited
        expected = rate * DEFAULT_LIFETIME_SECONDS / QLC_SPEC.pe_cycles
        assert result.provisioned_bytes == pytest.approx(expected, rel=1e-6)

    def test_nvm_needs_less_spare_than_qlc(self):
        rate = 10 * 1024 * 1024
        qlc = provision_capacity(QLC_SPEC, 1 * GIB, rate)
        nvm = provision_capacity(NVM_SPEC, 1 * GIB, rate)
        # 90x endurance difference -> 90x less required capacity.
        assert qlc.provisioned_bytes / max(1, nvm.provisioned_bytes) == pytest.approx(
            NVM_SPEC.pe_cycles / QLC_SPEC.pe_cycles, rel=0.01
        )

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            provision_capacity(QLC_SPEC, -1, 0.0)
        with pytest.raises(ValueError):
            provision_capacity(QLC_SPEC, 1, -1.0)

    def test_custom_lifetime(self):
        rate = 1024 * 1024
        one_year = provision_capacity(QLC_SPEC, 0, rate, lifetime_seconds=365 * 86400)
        three_years = provision_capacity(QLC_SPEC, 0, rate)
        assert three_years.provisioned_bytes == pytest.approx(3 * one_year.provisioned_bytes, rel=0.01)


class TestDeviceLifetime:
    def test_no_writes_is_infinite(self):
        assert device_lifetime_seconds(QLC_SPEC, GIB, 0.0) == float("inf")

    def test_lifetime_formula(self):
        # 1 GiB at 200 cycles = 200 GiB of writes; at 1 GiB/s that's 200 s.
        assert device_lifetime_seconds(QLC_SPEC, GIB, GIB) == pytest.approx(200.0)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            device_lifetime_seconds(QLC_SPEC, 0, 1.0)

"""Tests for the analytic LSM sizing model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.level_model import (
    levels_required,
    write_amplification_estimate,
)
from repro.common import GIB, MIB
from repro.errors import ConfigError


class TestLevelsRequired:
    def test_single_level_when_it_fits(self):
        assert levels_required(1 * MIB, 2 * MIB, 10) == 1

    def test_exponential_growth(self):
        # L1=1MiB, x10: capacities 1, 11, 111 MiB...
        assert levels_required(10 * MIB, 1 * MIB, 10) == 2
        assert levels_required(100 * MIB, 1 * MIB, 10) == 3

    def test_larger_multiplier_needs_fewer_levels(self):
        small = levels_required(10 * GIB, 1 * MIB, 4)
        large = levels_required(10 * GIB, 1 * MIB, 16)
        assert large < small

    def test_validation(self):
        with pytest.raises(ConfigError):
            levels_required(0, 1, 10)
        with pytest.raises(ConfigError):
            levels_required(1, 0, 10)
        with pytest.raises(ConfigError):
            levels_required(1, 1, 1)

    @given(st.integers(1, 10**12), st.integers(1, 10**9), st.integers(2, 32))
    @settings(max_examples=50, deadline=None)
    def test_capacity_actually_sufficient(self, db, level1, multiplier):
        levels = levels_required(db, level1, multiplier)
        capacity = sum(level1 * multiplier**i for i in range(levels))
        assert capacity >= db
        if levels > 1:
            smaller = sum(level1 * multiplier**i for i in range(levels - 1))
            assert smaller < db


class TestWriteAmplification:
    def test_grows_with_levels(self):
        assert write_amplification_estimate(5, 10) > write_amplification_estimate(3, 10)

    def test_grows_with_multiplier(self):
        assert write_amplification_estimate(4, 16) > write_amplification_estimate(4, 4)

    def test_wal_adds_one(self):
        with_wal = write_amplification_estimate(3, 10, wal=True)
        without = write_amplification_estimate(3, 10, wal=False)
        assert with_wal == pytest.approx(without + 1.0)

    def test_worst_case_higher_than_average(self):
        worst = write_amplification_estimate(4, 10, merge_fullness=1.0)
        average = write_amplification_estimate(4, 10, merge_fullness=0.5)
        assert worst > average

    def test_engine_measurement_is_in_model_ballpark(self):
        # Our engine measures WA ~9 on the default bench tree (4 live
        # levels below L0, multiplier 10); the analytic estimate should
        # be the same order of magnitude.
        estimate = write_amplification_estimate(4, 10)
        assert 5.0 < estimate < 40.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            write_amplification_estimate(0, 10)
        with pytest.raises(ConfigError):
            write_amplification_estimate(3, 1)
        with pytest.raises(ConfigError):
            write_amplification_estimate(3, 10, merge_fullness=2.0)

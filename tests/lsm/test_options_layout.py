"""Tests for DB options and storage layouts."""

import pytest

from repro.common import KIB, MIB, SimClock
from repro.errors import ConfigError
from repro.lsm.layout import build_layout, homogeneous_layout, nnntq_layout
from repro.lsm.options import DBOptions, options_for_db_size


class TestDBOptions:
    def test_defaults_validate(self):
        DBOptions()

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            DBOptions(memtable_bytes=0)
        with pytest.raises(ConfigError):
            DBOptions(block_bytes=0)
        with pytest.raises(ConfigError):
            DBOptions(block_bytes=128 * KIB, target_file_bytes=64 * KIB)
        with pytest.raises(ConfigError):
            DBOptions(num_levels=1)
        with pytest.raises(ConfigError):
            DBOptions(level_size_multiplier=1)
        with pytest.raises(ConfigError):
            DBOptions(level1_target_bytes=1 * KIB, target_file_bytes=64 * KIB)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(block_cache_bytes=-4096), "block_cache_bytes must be non-negative"),
            (dict(row_cache_bytes=-10), "row_cache_bytes must be non-negative"),
            (dict(pin_reserve_fraction=-1.0), "pin_reserve_fraction must be in"),
            (dict(pin_reserve_fraction=3.0), "pin_reserve_fraction must be in"),
            (dict(bits_per_key=-3), "bits_per_key must be >= 1"),
            (dict(bits_per_key=0), "bits_per_key must be >= 1"),
        ],
        ids=["block_cache_negative", "row_cache_negative", "pin_reserve_below",
             "pin_reserve_above", "bits_per_key_negative", "bits_per_key_zero"],
    )
    def test_an_out_of_range_field_fails_where_the_options_are_built(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            DBOptions(**fields)

    def test_range_edges_are_accepted(self):
        DBOptions(block_cache_bytes=0, row_cache_bytes=0, bits_per_key=1)
        DBOptions(pin_reserve_fraction=0.0)
        DBOptions(pin_reserve_fraction=1.0)

    def test_level_targets_exponential(self):
        opts = DBOptions(level1_target_bytes=256 * KIB, level_size_multiplier=8)
        assert opts.level_target_bytes(1) == 256 * KIB
        assert opts.level_target_bytes(2) == 8 * 256 * KIB
        assert opts.level_target_bytes(3) == 64 * 256 * KIB

    def test_l0_target_from_trigger(self):
        opts = DBOptions(memtable_bytes=64 * KIB, l0_compaction_trigger=4)
        assert opts.level_target_bytes(0) == 256 * KIB

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            DBOptions().level_target_bytes(5)
        with pytest.raises(ValueError):
            DBOptions().level_target_bytes(-1)

    def test_total_capacity(self):
        opts = DBOptions()
        assert opts.total_capacity_bytes() == sum(
            opts.level_target_bytes(level) for level in range(opts.num_levels)
        )


class TestOptionsForDbSize:
    def test_bottom_level_matches_db_size(self):
        opts = options_for_db_size(16 * MIB)
        assert opts.level_target_bytes(4) == pytest.approx(16 * MIB, rel=0.05)

    def test_multiplier_between_levels(self):
        opts = options_for_db_size(64 * MIB, level_size_multiplier=10)
        assert opts.level_target_bytes(3) * 10 == opts.level_target_bytes(4)

    def test_tiny_db_clamps_to_file_size(self):
        opts = options_for_db_size(64 * KIB)
        assert opts.level1_target_bytes >= opts.target_file_bytes

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ConfigError):
            options_for_db_size(0)

    def test_overrides_pass_through(self):
        opts = options_for_db_size(16 * MIB, block_cache_bytes=0)
        assert opts.block_cache_bytes == 0


class TestLayouts:
    def test_nnntq_groups_runs(self):
        layout = nnntq_layout()
        assert layout.code == "NNNTQ"
        assert len(layout.tiers) == 3
        assert layout.tier_for_level(0) is layout.tier_for_level(2)
        assert layout.tier_for_level(0).spec.name == "NVM"
        assert layout.tier_for_level(3).spec.name == "TLC"
        assert layout.tier_for_level(4).spec.name == "QLC"

    def test_wal_on_l0_tier(self):
        layout = nnntq_layout()
        assert layout.wal_tier is layout.tier_for_level(0)

    def test_homogeneous_single_tier(self):
        layout = homogeneous_layout("Q")
        assert layout.code == "QQQQQ"
        assert len(layout.tiers) == 1
        assert all(layout.tier_for_level(level) is layout.tiers[0] for level in range(5))

    def test_bad_code_length_rejected(self):
        with pytest.raises(ConfigError):
            build_layout("NQ", DBOptions(), SimClock())

    def test_unknown_letter_rejected(self):
        with pytest.raises(ConfigError):
            build_layout("NNNTX", DBOptions(), SimClock())

    def test_capacity_scales_with_level_targets(self):
        opts = DBOptions()
        layout = build_layout("NNNTQ", opts, SimClock(), capacity_headroom=2.0)
        qlc = layout.tier_for_level(4)
        assert qlc.capacity_bytes == 2 * opts.level_target_bytes(4)

    def test_total_cost_positive_and_ordered(self):
        opts = DBOptions()
        nvm_only = build_layout("NNNNN", opts, SimClock())
        qlc_only = build_layout("QQQQQ", opts, SimClock())
        assert nvm_only.total_cost_dollars() > qlc_only.total_cost_dollars() > 0

    def test_level_out_of_range(self):
        layout = nnntq_layout()
        with pytest.raises(ValueError):
            layout.tier_for_level(9)

    def test_describe_mentions_technologies(self):
        description = nnntq_layout().describe()
        assert "NVM" in description and "QLC" in description

    def test_case_insensitive_code(self):
        layout = build_layout("nnntq", DBOptions(), SimClock())
        assert layout.code == "NNNTQ"

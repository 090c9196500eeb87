"""Property-based tests of the SSTable build/read pipeline."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common import KIB, MIB, SimClock
from repro.lsm.block_cache import BlockCache
from repro.lsm.record import Record, ValueKind
from repro.lsm.sstable import SSTableBuilder
from repro.storage import QLC_SPEC, StorageBackend, StorageTier


def build(records, block_bytes=512):
    clock = SimClock()
    backend = StorageBackend(clock)
    tier = StorageTier("qlc", QLC_SPEC, 64 * MIB, clock)
    builder = SSTableBuilder(backend, tier, block_bytes=block_bytes, target_file_bytes=1 << 30)
    for record in records:
        builder.add(record)
    table = builder.finish()
    return table, BlockCache(64 * KIB)


unique_keys = st.lists(
    st.binary(min_size=1, max_size=24), min_size=1, max_size=120, unique=True
)


class TestSSTableProperties:
    @given(unique_keys, st.binary(max_size=64))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_written_key_is_readable(self, keys, value):
        records = [
            Record(key, seqno + 1, ValueKind.PUT, value)
            for seqno, key in enumerate(sorted(keys))
        ]
        table, cache = build(records)
        for record in records:
            hit, _, filtered = table.get(record.user_key, cache)
            assert hit == record
            assert not filtered

    @given(unique_keys)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_full_scan_returns_exact_input(self, keys):
        records = [
            Record(key, seqno + 1, ValueKind.PUT, b"v")
            for seqno, key in enumerate(sorted(keys))
        ]
        table, _ = build(records)
        read_back = table.read_all_records()
        assert read_back == records

    @given(unique_keys, st.binary(min_size=1, max_size=24))
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_iter_from_matches_sorted_filter(self, keys, probe):
        records = [
            Record(key, seqno + 1, ValueKind.PUT, b"v")
            for seqno, key in enumerate(sorted(keys))
        ]
        table, cache = build(records)
        got = [record.user_key for record, _ in table.iter_from(probe, cache)]
        expected = [key for key in sorted(keys) if key >= probe]
        assert got == expected

    @given(unique_keys)
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_metadata_boundaries(self, keys):
        ordered = sorted(keys)
        records = [
            Record(key, seqno + 1, ValueKind.PUT, b"v")
            for seqno, key in enumerate(ordered)
        ]
        table, _ = build(records)
        assert table.smallest_key == ordered[0]
        assert table.largest_key == ordered[-1]
        assert table.entry_count == len(ordered)

    @given(st.integers(min_value=128, max_value=4096))
    @settings(max_examples=15, deadline=None)
    def test_block_size_does_not_change_results(self, block_bytes):
        keys = [f"key{i:05d}".encode() for i in range(60)]
        records = [Record(key, i + 1, ValueKind.PUT, b"v" * 20) for i, key in enumerate(keys)]
        table, cache = build(records, block_bytes=block_bytes)
        for record in records[::7]:
            hit, _, _ = table.get(record.user_key, cache)
            assert hit == record

    def test_latency_reflects_tier_device(self):
        records = [Record(f"k{i:04d}".encode(), i + 1, ValueKind.PUT, b"v" * 40) for i in range(100)]
        table, cache = build(records)
        _, cold_latency, _ = table.get(b"k0050", cache)
        # First data access pays at least one QLC random read.
        assert cold_latency >= QLC_SPEC.read_latency_usec

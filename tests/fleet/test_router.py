"""Consistent-hash router: process stability, determinism, balance."""

import pytest

from repro.errors import ConfigError
from repro.fleet.router import ConsistentHashRouter, ring_hash

#: Pinned ring_hash values. These freeze the router's placement function
#: across processes, platforms and PRs: if any of them moves, every
#: committed fleet digest moves with it, so changing the hash is a
#: rebaseline-everything event, not a refactor.
PINNED_HASHES = {
    b"shard0#0": 0x7A7A513996CE5465,
    b"shard3#17": 0xA13AD910146CC2C4,
    b"t00-0000000042": 0xB1B8A20CFE0CFF59,
}


class TestRingHash:
    def test_pinned_values(self):
        for data, expected in PINNED_HASHES.items():
            assert ring_hash(data) == expected, data

    def test_distinct_inputs_spread_over_the_ring(self):
        # The raw fnv1a-64 clustered badly on short structured keys (the
        # reason ring_hash adds a finalizer); check the finalized hash
        # fills all 16 top-nibble buckets on a small structured sample.
        buckets = {
            ring_hash(f"shard{s}#{v}".encode()) >> 60
            for s in range(8)
            for v in range(64)
        }
        assert buckets == set(range(16))


class TestRouter:
    def test_identical_instances_agree(self):
        a = ConsistentHashRouter(8, vnodes=32)
        b = ConsistentHashRouter(8, vnodes=32)
        for index in range(2_000):
            key = b"t00-%010d" % index
            assert a.shard_for_key(key) == b.shard_for_key(key)

    def test_single_shard_owns_everything(self):
        router = ConsistentHashRouter(1)
        assert all(
            router.shard_for_key(b"t00-%010d" % i) == 0 for i in range(500)
        )

    def test_balance_within_tolerance(self):
        # 4 shards x 64 vnodes over 4k keys: every shard owns a
        # meaningful share. The bound is loose (hashing, not striping);
        # the default vnode count keeps max/mean well under it.
        router = ConsistentHashRouter(4, vnodes=64)
        counts = router.shard_counts(b"t00-%010d" % i for i in range(4_000))
        assert sum(counts) == 4_000
        assert min(counts) > 0
        mean = 4_000 / 4
        assert max(counts) / mean < 1.5

    def test_shard_counts_matches_shard_for_key(self):
        router = ConsistentHashRouter(3, vnodes=16)
        keys = [b"t01-%010d" % i for i in range(300)]
        counts = router.shard_counts(keys)
        expected = [0, 0, 0]
        for key in keys:
            expected[router.shard_for_key(key)] += 1
        assert counts == expected

    def test_growing_the_fleet_moves_few_keys(self):
        # The consistent-hashing property: going from N to N+1 shards
        # remaps roughly 1/(N+1) of the keys, not all of them.
        keys = [b"t00-%010d" % i for i in range(4_000)]
        before = ConsistentHashRouter(4)
        after = ConsistentHashRouter(5)
        moved = sum(
            1
            for key in keys
            if before.shard_for_key(key) != after.shard_for_key(key)
        )
        assert moved / len(keys) < 0.40  # ideal ~0.20; bound is loose

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigError):
            ConsistentHashRouter(0)
        with pytest.raises(ConfigError):
            ConsistentHashRouter(4, vnodes=0)

"""Sharded multi-tenant workload: partition coverage and determinism."""

import pytest

from repro.errors import ConfigError
from repro.fleet.router import ConsistentHashRouter
from repro.fleet.runner import _split_by_owned
from repro.fleet.workload import ShardOwnership, ShardWorkload, TenantSpec, owned_indices
from repro.workloads.ycsb import OP_INSERT, OP_SCAN

TENANTS = (
    TenantSpec(name="t00", key_count=1_200),
    TenantSpec(
        name="t01",
        key_count=800,
        weight=2.0,
        read_proportion=0.50,
        update_proportion=0.40,
        scan_proportion=0.10,
    ),
)
SHARDS = 4


def make_workload(shard_id, *, operations=2_000, seed=0):
    router = ConsistentHashRouter(SHARDS)
    return ShardWorkload(
        TENANTS, router, shard_id, operations=operations, seed=seed
    )


def materialize(batches):
    """Flatten a batch stream into one comparable op list."""
    ops = []
    for batch in batches:
        ops.extend(
            zip(batch.kinds, batch.keys, batch.values, batch.scan_lengths)
        )
    return ops


class TestPartition:
    def test_shards_partition_every_tenant_key_space(self):
        # Every key of every tenant is owned by exactly one shard, and
        # the per-shard load phases insert exactly the owned sets.
        owned_union: set[bytes] = set()
        total = 0
        for shard_id in range(SHARDS):
            workload = make_workload(shard_id)
            inserted = set()
            for batch in workload.load_batches():
                assert all(kind == OP_INSERT for kind in batch.kinds)
                inserted.update(batch.keys)
            assert owned_union.isdisjoint(inserted)
            owned_union |= inserted
            total += len(inserted)
            assert workload.config.record_count == len(inserted)
        assert total == sum(t.key_count for t in TENANTS)

    def test_owned_counts_matches_router(self):
        router = ConsistentHashRouter(SHARDS)
        workload = make_workload(1)
        counts = workload.owned_counts()
        for tenant in TENANTS:
            expected = sum(
                1
                for index in range(tenant.key_count)
                if router.shard_for_key(
                    (tenant.key_format % index).encode("ascii")
                )
                == 1
            )
            assert counts[tenant.name] == expected


class TestOwnershipPass:
    """One hashing pass feeds both the op split and the workload."""

    def test_keys_per_shard_matches_router_for_every_shard(self):
        router = ConsistentHashRouter(SHARDS)
        expected = router.shard_counts(
            (tenant.key_format % index).encode("ascii")
            for tenant in TENANTS
            for index in range(tenant.key_count)
        )
        for shard_id in range(SHARDS):
            ownership = ShardOwnership(TENANTS, router, shard_id)
            assert ownership.keys_per_shard == expected
            assert (
                sum(len(state.owned) for state in ownership.states)
                == expected[shard_id]
            )

    def test_every_shard_of_a_process_shares_one_hashing_pass(self):
        router = ConsistentHashRouter(SHARDS)
        owned_indices.cache_clear()
        passes = [ShardOwnership(TENANTS, router, shard_id) for shard_id in range(SHARDS)]
        info = owned_indices.cache_info()
        assert (info.misses, info.hits) == (1, SHARDS - 1)
        shared = owned_indices(TENANTS, SHARDS, router.vnodes)
        for shard_id, ownership in enumerate(passes):
            for tenant, state in enumerate(ownership.states):
                assert state.owned is shared[tenant][shard_id]
                assert list(state.owned) == sorted(state.owned)
        # Another ring is another pass, not a stale hit.
        assert ShardOwnership(TENANTS, ConsistentHashRouter(SHARDS, vnodes=8), 0).keys_per_shard \
            != passes[0].keys_per_shard

    def test_out_of_range_shard_is_rejected(self):
        router = ConsistentHashRouter(SHARDS)
        for shard_id in (-1, SHARDS):
            with pytest.raises(ConfigError):
                ShardOwnership(TENANTS, router, shard_id)

    def test_shared_pass_generates_the_same_streams(self):
        router = ConsistentHashRouter(SHARDS)
        shared = ShardWorkload(
            TENANTS, router, 1, operations=500, seed=3,
            ownership=ShardOwnership(TENANTS, router, 1),
        )
        own = ShardWorkload(TENANTS, router, 1, operations=500, seed=3)
        assert shared.owned_counts() == own.owned_counts()
        for phase in ("load_batches", "run_batches"):
            assert materialize(getattr(shared, phase)()) == materialize(
                getattr(own, phase)()
            ), phase

    def test_pass_for_another_shard_is_rejected(self):
        router = ConsistentHashRouter(SHARDS)
        with pytest.raises(ConfigError):
            ShardWorkload(
                TENANTS, router, 1, operations=10,
                ownership=ShardOwnership(TENANTS, router, 2),
            )

    def test_split_is_exact_and_proportional(self):
        assert _split_by_owned([3, 1, 0, 4], 16) == [6, 2, 0, 8]
        # Largest remainders win the leftovers; ties go to the lower id.
        assert _split_by_owned([1, 1, 1], 10) == [4, 3, 3]
        assert _split_by_owned([5, 3], 0) == [0, 0]
        with pytest.raises(ConfigError):
            _split_by_owned([0, 0], 10)


class TestDeterminism:
    def test_identical_workloads_generate_identical_streams(self):
        for phase in ("load_batches", "run_batches"):
            a = materialize(getattr(make_workload(2), phase)())
            b = materialize(getattr(make_workload(2), phase)())
            assert a == b, phase

    def test_seed_changes_the_op_stream(self):
        a = materialize(make_workload(2, seed=0).run_batches())
        b = materialize(make_workload(2, seed=1).run_batches())
        assert a != b

    def test_batch_size_does_not_change_the_stream(self):
        a = materialize(make_workload(0).run_batches(batch_ops=64))
        b = materialize(make_workload(0).run_batches(batch_ops=999))
        assert a == b


class TestTraffic:
    def test_op_count_and_mix(self):
        workload = make_workload(3, operations=3_000)
        ops = materialize(workload.run_batches())
        assert len(ops) == 3_000
        # All keys belong to this shard's owned sets; scans only come
        # from the tenant whose mix includes them (t01).
        owned = set()
        for batch in workload.load_batches():
            owned.update(batch.keys)
        for kind, key, _value, length in ops:
            assert key in owned
            if kind == OP_SCAN:
                assert key.startswith(b"t01-")
                assert 1 <= length <= 100

    def test_weighted_tenant_gets_more_traffic(self):
        # t01 has weight 2 with ~2/3 the keys of t00: per-shard traffic
        # share should exceed t00's by a clear margin.
        ops = materialize(make_workload(0, operations=4_000).run_batches())
        t01 = sum(1 for _, key, _v, _l in ops if key.startswith(b"t01-"))
        assert t01 > len(ops) * 0.5


class TestValidation:
    def test_tenant_spec_rejects_bad_proportions(self):
        with pytest.raises(ConfigError):
            TenantSpec(name="bad", key_count=10, read_proportion=0.5,
                       update_proportion=0.2, scan_proportion=0.2)

    def test_tenant_spec_rejects_bad_names_and_counts(self):
        with pytest.raises(ConfigError):
            TenantSpec(name="has space", key_count=10)
        with pytest.raises(ConfigError):
            TenantSpec(name="t00", key_count=0)

    def test_workload_rejects_duplicate_tenants_and_bad_shard(self):
        router = ConsistentHashRouter(2)
        with pytest.raises(ConfigError):
            ShardWorkload(
                (TENANTS[0], TENANTS[0]), router, 0, operations=10
            )
        with pytest.raises(ConfigError):
            ShardWorkload(TENANTS, router, 2, operations=10)

"""Sharded fleet harness: router, shared device pool, process fan-out.

The paper's evaluation is one PrismDB instance on one machine; the fleet
harness scales that out the way a key-value *service* deploys it — many
single-node shards behind a consistent-hash router, multi-tenant key
spaces striped across them, and flash tiers provisioned as a shared pool
rather than per-shard silos:

* :class:`ConsistentHashRouter` — an fnv1a-64 hash ring with virtual
  nodes; process-stable (no ``hash()``), so key ownership is identical
  in every worker process.
* :class:`TenantSpec` / :class:`ShardWorkload` — per-tenant Zipfian key
  spaces partitioned by the router; each shard drives exactly the
  requests the router would send it.
* :class:`DevicePool` — tiers as a fleet resource: per-interval write
  pressure summed across shards feeds a pool-level backlog whose
  queueing penalty inflates every shard's read tail (one shard's
  compaction storm is its neighbours' problem).
* :func:`run_fleet` / :class:`FleetConfig` — fans shards out across a
  ``multiprocessing`` pool (:mod:`repro.bench.fanout`) and merges the
  per-shard :class:`~repro.bench.harness.RunResult` artifacts into one
  fleet result whose bytes are identical for any ``jobs`` value.

A library, not a command: perfbench's ``fleet-mixed`` workload and the
tier-1 tests under ``tests/fleet`` are what run it.

See ``docs/FLEET.md`` for the contracts and the determinism rules.
"""

from repro.fleet.pool import DevicePool, PoolParams
from repro.fleet.router import ConsistentHashRouter
from repro.fleet.runner import FleetConfig, run_fleet, run_shard
from repro.fleet.workload import ShardWorkload, TenantSpec

__all__ = [
    "ConsistentHashRouter",
    "DevicePool",
    "FleetConfig",
    "PoolParams",
    "ShardWorkload",
    "TenantSpec",
    "run_fleet",
    "run_shard",
]

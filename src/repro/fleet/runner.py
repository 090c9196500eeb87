"""Fleet runner: fan shards out over processes, merge deterministically.

``run_fleet(config, jobs=N)`` is the fleet's one entry point. Its
determinism contract, which ``tests/fleet/test_fleet_determinism.py``
pins to committed digests:

* Every shard's simulation is a pure function of ``(config, shard_id)``
  — its seed is ``derive_seed(config.seed, "fleet", "shard<i>")``, its
  workload is the router-partitioned slice, and nothing it computes
  depends on which process ran it or when.
* Workers return their artifact as one binary blob
  (:func:`repro.bench.codec.encode_result` — the same tree ``to_json()``
  builds in ``marshal`` format 2, framed, with an exact-round-trip
  guarantee), and :func:`stream_fan_out` yields the blobs in shard
  order regardless of completion order. ``jobs == 1`` rides the same
  encode/decode path, so a single-process run cannot diverge from a
  pooled one.
* The router decodes each blob as it streams back and folds it into a
  :class:`~repro.fleet.merge.ShardAccumulator`; the accumulator and the
  device-pool overlay (:mod:`repro.fleet.pool`) are pure functions of
  the ordered result sequence.

Therefore the merged fleet artifact is **bit-identical for any
``jobs`` value** — ``jobs`` buys wall-clock time and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.codec import decode_result, encode_result
from repro.bench.fanout import stream_fan_out
from repro.bench.harness import (
    RunResult,
    SystemConfig,
    WorkloadRunner,
    build_system,
    check_runner_options,
)
from repro.common.rng import derive_seed
from repro.errors import ConfigError, ShardError
from repro.fleet.merge import ShardAccumulator
from repro.fleet.pool import DevicePool
from repro.fleet.router import DEFAULT_VNODES, ConsistentHashRouter
from repro.fleet.workload import ShardOwnership, ShardWorkload, TenantSpec, check_tenants

#: Router-side group commit: the router batches WAL appends before
#: acknowledging, so each shard syncs every N-th append.
GROUP_COMMIT = 8


def default_tenants(
    count: int = 2, *, keys_per_tenant: int = 20_000, zipf_theta: float = 0.99
) -> tuple[TenantSpec, ...]:
    """A homogeneous tenant set for smokes and tests."""
    if count < 1:
        raise ConfigError(f"tenant count must be >= 1: {count}")
    return tuple(
        TenantSpec(
            name=f"t{index:02d}",
            key_count=keys_per_tenant,
            zipf_theta=zipf_theta,
        )
        for index in range(count)
    )


@dataclass(frozen=True)
class FleetConfig:
    """Everything a worker process needs to run one shard (picklable)."""

    system: str = "prismdb"
    layout_code: str = "NNNTQ"
    shards: int = 4
    tenants: tuple[TenantSpec, ...] = field(default_factory=default_tenants)
    #: Fleet-total measured operations, split across shards in
    #: proportion to the keys each owns (largest-remainder rounding).
    total_operations: int = 100_000
    warmup_operations: int = 0
    clients: int = 8
    seed: int = 0
    cache_fraction: float = 0.10
    sample_interval_ms: float = 10.0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1: {self.shards}")
        if self.total_operations < 0 or self.warmup_operations < 0:
            raise ConfigError("operation counts must be non-negative")
        # Build what every shard builds from the other fields, so a bad
        # value fails here, in the router, before any worker starts.
        check_tenants(self.tenants)
        self.system_config(0)
        check_runner_options(
            clients=self.clients, sample_interval_ms=self.sample_interval_ms
        )

    def shard_seed(self, shard_id: int) -> int:
        return derive_seed(self.seed, "fleet", f"shard{shard_id}")

    def system_config(self, shard_id: int) -> SystemConfig:
        """The system shard ``shard_id`` runs."""
        return SystemConfig(
            system=self.system,
            layout_code=self.layout_code,
            cache_fraction=self.cache_fraction,
            wal_sync_every=GROUP_COMMIT,
            clients=self.clients,
            seed=self.shard_seed(shard_id),
        )


def _split_by_owned(owned: list[int], total: int) -> list[int]:
    """Split an op count across shards proportional to owned keys.

    Largest-remainder apportionment (ties to the lower shard id): exact
    total, deterministic, and independent of execution order.
    """
    total_keys = sum(owned)
    if total_keys == 0:
        raise ConfigError("fleet owns no keys")
    quotas = [total * count / total_keys for count in owned]
    floors = [int(q) for q in quotas]
    shortfall = total - sum(floors)
    order = sorted(
        range(len(owned)), key=lambda s: (-(quotas[s] - floors[s]), s)
    )
    for shard in order[:shortfall]:
        floors[shard] += 1
    return floors


def run_shard(config: FleetConfig, shard_id: int) -> RunResult:
    """Simulate one shard of the fleet (pure in ``(config, shard_id)``).

    Nothing built here outlives the call: the shard's engine is freed
    by reference counting when it returns, so a worker that runs many
    shards holds one engine at a time.
    """
    router = ConsistentHashRouter(config.shards)
    # One pass hashes every tenant key onto the ring; both op splits and
    # the workload's owned-key lists derive from it.
    ownership = ShardOwnership(config.tenants, router, shard_id)
    run_split = _split_by_owned(ownership.keys_per_shard, config.total_operations)
    warmup_split = _split_by_owned(ownership.keys_per_shard, config.warmup_operations)
    workload = ShardWorkload(
        config.tenants,
        router,
        shard_id,
        operations=run_split[shard_id],
        warmup_operations=warmup_split[shard_id],
        seed=config.shard_seed(shard_id),
        ownership=ownership,
    )
    system_config = config.system_config(shard_id)
    db = build_system(system_config, workload)
    runner = WorkloadRunner(
        db, clients=config.clients, sample_interval_ms=config.sample_interval_ms
    )
    runner.load(workload)
    if workload.config.warmup_operations > 0:
        runner.warmup(workload)
    elapsed = runner.run(workload)
    result = runner.result(
        f"fleet/{config.system}/shard{shard_id}", system_config, elapsed
    )
    result.fleet = {
        "shard": shard_id,
        "seed": config.shard_seed(shard_id),
        "owned_keys": workload.owned_counts(),
        "operations": run_split[shard_id],
    }
    return result


def _shard_worker(payload: tuple[FleetConfig, int]) -> bytes:
    """Spawn-safe pool entrypoint: run one shard, return its encoded artifact.

    The result crosses the process boundary as one binary blob instead
    of a deep JSON dict — pickle moves a single ``bytes`` object rather
    than re-walking thousands of timeline/metric nodes per shard. A
    failure crosses it as a :class:`~repro.errors.ShardError` naming the
    shard, its seed and a ``run_shard`` call that reproduces it.
    """
    config, shard_id = payload
    try:
        return encode_result(run_shard(config, shard_id))
    except Exception as exc:
        raise ShardError(
            shard_id,
            config.shard_seed(shard_id),
            f"run_shard({config!r}, {shard_id})",
            f"{type(exc).__name__}: {exc}",
        ) from exc


def run_fleet(config: FleetConfig, *, jobs: int = 1) -> RunResult:
    """Run every shard (``jobs`` processes) and merge into one result.

    Wall-clock timing is deliberately the *caller's* job: the returned
    result — including its JSON artifact bytes — must be a pure function
    of ``config``, never of ``jobs`` or elapsed real time.
    """
    payloads = [(config, shard_id) for shard_id in range(config.shards)]
    accumulator = ShardAccumulator()
    keys_per_shard: list[int] = []
    operations_per_shard: list[int] = []
    per_shard: list[dict] = []
    # Decode and fold each artifact the moment its (payload-order) turn
    # streams back, so merge work overlaps the still-running shards and
    # full shard results never accumulate behind a barrier.
    for blob in stream_fan_out(_shard_worker, payloads, jobs):
        result = decode_result(blob)
        accumulator.add(result)
        keys_per_shard.append(sum(result.fleet["owned_keys"].values()))
        operations_per_shard.append(result.fleet["operations"])
        per_shard.append(
            {
                "shard": result.fleet["shard"],
                "operations": result.operations,
                "throughput_kops": result.throughput_kops,
                "read_p99_usec": result.read_latency.p99,
                "update_p99_usec": result.update_latency.p99,
                "write_amplification": result.write_amplification,
            }
        )
    merged = accumulator.finish(
        label=f"fleet/{config.system}/{config.shards}shards"
    )

    pool = DevicePool(config.shards)
    contention = pool.contention(merged.timeline)
    penalty = contention["penalty"]
    merged.read_latency = DevicePool.apply_penalty(merged.read_latency, penalty)
    merged.scan_latency = DevicePool.apply_penalty(merged.scan_latency, penalty)
    merged.read_latency_by_source = {
        source: DevicePool.apply_penalty(summary, penalty)
        for source, summary in merged.read_latency_by_source.items()
    }

    merged.fleet = {
        "schema": 1,
        "shards": config.shards,
        "vnodes": DEFAULT_VNODES,
        "group_commit": GROUP_COMMIT,
        "tenants": [
            {
                "name": tenant.name,
                "key_count": tenant.key_count,
                "weight": tenant.weight,
                "distribution": tenant.distribution,
                "zipf_theta": tenant.zipf_theta,
            }
            for tenant in config.tenants
        ],
        "keys_per_shard": keys_per_shard,
        "operations_per_shard": operations_per_shard,
        "pool": contention,
        "per_shard": per_shard,
    }
    return merged

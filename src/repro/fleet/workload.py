"""Multi-tenant sharded workload: each shard drives its routed slice.

A fleet workload is a set of :class:`TenantSpec` key spaces striped
across shards by the :class:`~repro.fleet.router.ConsistentHashRouter`.
Each shard process builds a :class:`ShardWorkload` that generates
exactly the requests the router would deliver to that shard:

* **Ownership** — every tenant's key space is enumerated and hashed
  onto the ring (once per process: :func:`owned_indices`), and the shard
  keeps the keys the router assigns to it, as a column of 4-byte key
  indices. Ownership depends only on (tenants, shards, vnodes), never on
  worker count or process identity, because the router hashes with
  fnv1a-64.
* **Skew** — each tenant draws from its own Zipfian (or uniform /
  latest) generator over its *owned* keys. The scrambled-Zipfian rank
  hash spreads a tenant's hot set uniformly over its key space, so the
  restriction to an owned subset preserves the tenant's skew profile on
  every shard.
* **Traffic share** — tenants are picked per-op with probability
  proportional to ``weight * owned_fraction``: a router in front of the
  fleet delivers each tenant's traffic to shards in proportion to the
  keys they own.

The workload is insert-free (reads, updates, scans): an insert would
grow a tenant's key space, which requires a fleet-global cursor and
would couple shards. Every RNG derives from the shard's seed via
:func:`~repro.common.rng.make_rng`, so a shard's stream is a pure
function of (fleet config, shard id) — the foundation of the fleet's
worker-count invariance.

:class:`ShardWorkload` implements the batched workload protocol
(``load_batches`` / ``warmup_batches`` / ``run_batches`` plus
``total_data_bytes`` and a ``config`` view), so the existing
:class:`~repro.bench.harness.WorkloadRunner` drives it unchanged.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from repro.common.rng import make_rng
from repro.errors import ConfigError
from repro.fleet.router import ConsistentHashRouter
from repro.workloads.ycsb import (
    DEFAULT_BATCH_OPS,
    OP_INSERT,
    OP_READ,
    OP_SCAN,
    OP_UPDATE,
    RequestBatch,
)
from repro.workloads.zipfian import make_generator


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's key space and traffic profile."""

    name: str
    key_count: int
    #: Relative share of fleet traffic (normalized across tenants).
    weight: float = 1.0
    distribution: str = "zipfian"
    zipf_theta: float = 0.99
    read_proportion: float = 0.95
    update_proportion: float = 0.05
    scan_proportion: float = 0.0
    value_bytes: int = 100
    max_scan_length: int = 100

    def __post_init__(self) -> None:
        if not self.name or any(c in self.name for c in " /{}"):
            raise ConfigError(f"invalid tenant name {self.name!r}")
        if self.key_count <= 0:
            raise ConfigError(f"{self.name}: key_count must be positive")
        if self.weight <= 0:
            raise ConfigError(f"{self.name}: weight must be positive")
        total = self.read_proportion + self.update_proportion + self.scan_proportion
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(
                f"{self.name}: read+update+scan proportions must sum to 1.0, got {total}"
            )
        if self.value_bytes <= 0:
            raise ConfigError(f"{self.name}: value_bytes must be positive")
        if self.max_scan_length <= 0:
            raise ConfigError(f"{self.name}: max_scan_length must be positive")

    @property
    def key_format(self) -> str:
        """Key format; the tenant name prefix keeps key spaces disjoint."""
        return f"{self.name}-%010d"


@dataclass(frozen=True)
class _ShardConfigView:
    """The slice of :class:`~repro.workloads.ycsb.YCSBConfig` the harness reads."""

    record_count: int
    operation_count: int
    warmup_operations: int
    seed: int


@lru_cache(maxsize=4)
def owned_indices(
    tenants: tuple[TenantSpec, ...], num_shards: int, vnodes: int
) -> tuple[tuple[memoryview, ...], ...]:
    """Which key indices of which tenant every shard owns.

    ``owned_indices(...)[t][s]`` are the ascending key indices of
    ``tenants[t]`` that shard ``s`` owns. Hashing each tenant key onto
    the ring (a prefix-state lookup and three byte steps per key; no
    hash is kept) is a pure function of ``(tenants, num_shards,
    vnodes)`` — the ring is built from the two ints alone — so a
    process does it once however many of the fleet's shards it goes on
    to run. The result is shared between callers, so each column is a
    read-only ``memoryview`` of unsigned 4-byte ints over ``bytes``:
    indexing, slicing and ``len`` work as on a tuple, at 4 B per key,
    and writes raise ``TypeError``.
    """
    shard_for_key = ConsistentHashRouter(num_shards, vnodes=vnodes).shard_for_key
    per_tenant = []
    for spec in tenants:
        key_format = spec.key_format.encode("ascii")
        per_shard = [array("I") for _ in range(num_shards)]
        for index in range(spec.key_count):
            per_shard[shard_for_key(key_format % index)].append(index)
        per_tenant.append(
            tuple(memoryview(column.tobytes()).cast("I") for column in per_shard)
        )
    return tuple(per_tenant)


class _TenantState:
    """Per-tenant ownership and key format on one shard."""

    __slots__ = ("spec", "key_format", "owned", "key_len")

    def __init__(self, spec: TenantSpec, owned: memoryview):
        self.spec = spec
        #: Keys are formatted per request (``key_format % index``), not kept.
        self.key_format = spec.key_format.encode("ascii")
        self.owned = owned
        self.key_len = len(self.key_format % 0)


class ShardOwnership:
    """One shard's slice of the fleet's key ownership.

    Filters :func:`owned_indices` (the one hashing pass per process)
    down to the key indices ``shard_id`` owns — what
    :class:`ShardWorkload` draws from — and keeps the count of keys
    *every* shard owns (``keys_per_shard``, what the fleet runner
    apportions operation counts by).
    """

    def __init__(
        self,
        tenants: tuple[TenantSpec, ...],
        router: ConsistentHashRouter,
        shard_id: int,
    ) -> None:
        if not 0 <= shard_id < router.num_shards:
            raise ConfigError(f"shard_id out of range: {shard_id}")
        self.shard_id = shard_id
        per_tenant = owned_indices(tuple(tenants), router.num_shards, router.vnodes)
        self.keys_per_shard = [
            sum(len(per_shard[shard]) for per_shard in per_tenant)
            for shard in range(router.num_shards)
        ]
        self.states = [
            _TenantState(spec, per_shard[shard_id])
            for spec, per_shard in zip(tenants, per_tenant)
        ]


class ShardWorkload:
    """The request stream one shard receives from the fleet router."""

    def __init__(
        self,
        tenants: tuple[TenantSpec, ...],
        router: ConsistentHashRouter,
        shard_id: int,
        *,
        operations: int,
        warmup_operations: int = 0,
        seed: int = 0,
        ownership: ShardOwnership | None = None,
    ) -> None:
        if not tenants:
            raise ConfigError("fleet workload needs at least one tenant")
        if len({t.name for t in tenants}) != len(tenants):
            raise ConfigError("tenant names must be unique")
        if not 0 <= shard_id < router.num_shards:
            raise ConfigError(f"shard_id out of range: {shard_id}")
        if operations < 0 or warmup_operations < 0:
            raise ConfigError("operation counts must be non-negative")
        self.tenants = tenants
        self.router = router
        self.shard_id = shard_id
        self.seed = seed
        # ``ownership`` is the pass a caller already made for this shard
        # (the fleet runner sizes the shard's op counts from it).
        if ownership is None:
            ownership = ShardOwnership(tenants, router, shard_id)
        elif ownership.shard_id != shard_id:
            raise ConfigError(
                f"ownership pass is for shard {ownership.shard_id}, not {shard_id}"
            )
        self._states = ownership.states
        record_count = sum(len(state.owned) for state in self._states)
        if record_count == 0:
            raise ConfigError(
                f"shard {shard_id} owns no keys; raise vnodes or key counts"
            )
        self.config = _ShardConfigView(
            record_count=record_count,
            operation_count=operations,
            warmup_operations=warmup_operations,
            seed=seed,
        )
        # Tenant pick weights: traffic share * fraction of the tenant's
        # keys this shard owns (what a front-end router delivers here).
        weights = [
            state.spec.weight * len(state.owned) / state.spec.key_count
            for state in self._states
        ]
        total = sum(weights)
        self._tenant_cuts: list[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._tenant_cuts.append(acc)
        self._tenant_cuts[-1] = 1.0  # guard float drift at the top end

    def owned_counts(self) -> dict[str, int]:
        """Keys owned on this shard, per tenant (fleet provenance block)."""
        return {state.spec.name: len(state.owned) for state in self._states}

    def total_data_bytes(self) -> int:
        """Approximate serialized size of this shard's loaded data."""
        return sum(
            len(state.owned) * (state.key_len + state.spec.value_bytes + 15)
            for state in self._states
        )

    # ------------------------------------------------------------------
    # Phases (batched workload protocol)
    # ------------------------------------------------------------------
    def load_batches(self, batch_ops: int = DEFAULT_BATCH_OPS):
        """Insert every owned key once, tenant by tenant, in key order."""
        for state in self._states:
            rng = make_rng(self.seed, "load", state.spec.name)
            randbytes = rng.randbytes
            key_format = state.key_format
            value_bytes = state.spec.value_bytes
            owned = state.owned
            for start in range(0, len(owned), batch_ops):
                chunk = owned[start : start + batch_ops]
                n = len(chunk)
                yield RequestBatch(
                    [OP_INSERT] * n,
                    [key_format % index for index in chunk],
                    [randbytes(value_bytes) for _ in range(n)],
                    [0] * n,
                )

    def warmup_batches(self, batch_ops: int = DEFAULT_BATCH_OPS):
        """Unmeasured steady-state traffic (same mix, own RNG streams)."""
        return self._op_batches("warmup", self.config.warmup_operations, batch_ops)

    def run_batches(self, batch_ops: int = DEFAULT_BATCH_OPS):
        """The measured phase: the shard's routed multi-tenant stream."""
        return self._op_batches("ops", self.config.operation_count, batch_ops)

    def _op_batches(self, phase: str, count: int, batch_ops: int):
        op_rng = make_rng(self.seed, phase, "ops")
        value_rng = make_rng(self.seed, phase, "values")
        generators = [
            make_generator(
                state.spec.distribution,
                len(state.owned),
                state.spec.zipf_theta,
                make_rng(self.seed, phase, "keys", state.spec.name),
            )
            if state.owned
            else None
            for state in self._states
        ]
        cuts = self._tenant_cuts
        states = self._states
        dice_fn = op_rng.random
        randrange = op_rng.randrange
        randbytes = value_rng.randbytes
        empty = b""
        remaining = count
        while remaining > 0:
            n = batch_ops if batch_ops < remaining else remaining
            remaining -= n
            kinds: list[int] = []
            keys: list[bytes] = []
            values: list[bytes] = []
            lengths: list[int] = []
            append_kind = kinds.append
            append_key = keys.append
            append_value = values.append
            append_length = lengths.append
            for _ in range(n):
                tenant = bisect_right(cuts, dice_fn())
                if tenant == len(cuts):  # dice == 1.0 edge
                    tenant -= 1
                state = states[tenant]
                spec = state.spec
                generator = generators[tenant]
                key = state.key_format % state.owned[generator.next_index()]
                dice = dice_fn()
                if dice < spec.read_proportion:
                    append_kind(OP_READ)
                    append_key(key)
                    append_value(empty)
                    append_length(0)
                elif dice < spec.read_proportion + spec.update_proportion:
                    append_kind(OP_UPDATE)
                    append_key(key)
                    append_value(randbytes(spec.value_bytes))
                    append_length(0)
                else:
                    append_kind(OP_SCAN)
                    append_key(key)
                    append_value(empty)
                    append_length(1 + randrange(spec.max_scan_length))
            yield RequestBatch(kinds, keys, values, lengths)

"""The four benchmark workloads and their fixed sizes.

Sizes are the issue's, with every *operation count* multiplied by one
common factor (:data:`OPS_SCALE`) so that a run with its repeated
set-ups fits the benchmark contract's time cap; record counts, value
size, layout and mixes are unscaled. ``--quick`` divides the op counts
by a further :data:`QUICK_DIVISOR` for smoke use.

All workloads: 100 B values, layout ``NNNTQ``, 8 closed-loop clients,
every RNG derived from ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Common factor applied to the issue's op counts (recorded in every
#: output's ``sizes`` block).
OPS_SCALE = 0.25
QUICK_DIVISOR = 10

LAYOUT = "NNNTQ"
VALUE_BYTES = 100
CLIENTS = 8
FLEET_SHARDS = 8
FLEET_JOBS = 2


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    system: str
    records: int
    #: Warm-up / measured op counts at OPS_SCALE == 1 (the issue's sizes).
    base_warmup_ops: int
    base_measured_ops: int
    cache_fraction: float = 0.10
    #: YCSBConfig mix of a single-instance workload.
    mix: dict = field(default_factory=dict)
    fleet: bool = False
    #: Untraced repeats per run. fleet-mixed has no batch marks to rebuild
    #: a quiet region from (its shards run in child processes, on every
    #: core), so it needs more whole repeats before its fastest one is
    #: free of a slow burst.
    repeats: int = 3

    def ops(self, quick: bool) -> tuple[int, int]:
        """(warm-up ops, measured ops) after scaling."""
        factor = OPS_SCALE / (QUICK_DIVISOR if quick else 1)
        return int(self.base_warmup_ops * factor), int(self.base_measured_ops * factor)

    def sizes(self, quick: bool) -> dict:
        """The size block every output carries; ``compare`` refuses to
        compare outputs whose size blocks differ."""
        warmup, measured = self.ops(quick)
        sizes = {
            "system": self.system,
            "layout": LAYOUT,
            "records": self.records,
            "value_bytes": VALUE_BYTES,
            "clients": CLIENTS,
            "warmup_ops": warmup,
            "measured_ops": measured,
            "ops_scale": OPS_SCALE,
            "cache_fraction": self.cache_fraction,
        }
        if self.fleet:
            sizes.update(shards=FLEET_SHARDS, jobs=FLEET_JOBS)
        return sizes


SPECS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "read-hot",
            "paper default 95/5 zipf-0.99 mix; hot set fits the cache, so the read path "
            "and tracker dominate host time and compaction is idle",
            "prismdb", 100_000, 50_000, 200_000,
            mix=dict(read_proportion=0.95, update_proportion=0.05),
        ),
        WorkloadSpec(
            "write-heavy",
            "20/80 read/update: compaction merge, table/bloom/block build dominate; reads "
            "run beside heavy compaction, where the paper's tail-latency claim lives",
            "prismdb", 100_000, 30_000, 120_000,
            mix=dict(read_proportion=0.20, update_proportion=0.80),
        ),
        WorkloadSpec(
            "scan-cold",
            "RocksDB baseline, uniform keys, 45/5/50 read/insert/scan, data larger than "
            "the cache: zero core.* calls; iterators, decode, device are largest here",
            "rocksdb", 100_000, 0, 60_000, cache_fraction=0.02,
            mix=dict(read_proportion=0.45, update_proportion=0.0, insert_proportion=0.05,
                     scan_proportion=0.50, distribution="uniform", max_scan_length=50),
        ),
        WorkloadSpec(
            "fleet-mixed",
            "8 PrismDB shards over 2 processes, reader+writer tenants: the only workload "
            "touching fleet.*, bench.codec, spawn/IPC and obs.timeline",
            "prismdb", 100_000, 40_000, 240_000, fleet=True, repeats=5,
        ),
    )
}


def single_configs(spec: WorkloadSpec, seed: int, quick: bool):
    """(SystemConfig, YCSBConfig) of a single-instance workload."""
    from repro.bench.harness import SystemConfig
    from repro.workloads.ycsb import YCSBConfig

    if spec.fleet:
        raise ValueError(f"not a single-instance workload: {spec.name}")
    warmup, measured = spec.ops(quick)
    workload = YCSBConfig(
        record_count=spec.records,
        operation_count=measured,
        warmup_operations=warmup,
        value_bytes=VALUE_BYTES,
        seed=seed,
        **spec.mix,
    )
    system = SystemConfig(
        system=spec.system,
        layout_code=LAYOUT,
        cache_fraction=spec.cache_fraction,
        clients=CLIENTS,
        seed=seed,
    )
    return system, workload


def fleet_config(spec: WorkloadSpec, seed: int, quick: bool):
    """The FleetConfig of ``fleet-mixed`` (timeline sampler at the fleet default)."""
    from repro.fleet.runner import FleetConfig
    from repro.fleet.workload import TenantSpec

    warmup, measured = spec.ops(quick)
    tenants = (
        TenantSpec("reader", 60_000, read_proportion=0.95, update_proportion=0.05,
                   value_bytes=VALUE_BYTES),
        TenantSpec("writer", 40_000, read_proportion=0.50, update_proportion=0.50,
                   value_bytes=VALUE_BYTES),
    )
    return FleetConfig(
        system=spec.system,
        layout_code=LAYOUT,
        shards=FLEET_SHARDS,
        tenants=tenants,
        total_operations=measured,
        warmup_operations=warmup,
        clients=CLIENTS,
        seed=seed,
        cache_fraction=spec.cache_fraction,
    )

#!/usr/bin/env python3
"""Scenario: watching pinned compaction separate hot from cold.

A deep-dive into the paper's mechanism. We build a PrismDB, age it with
a skewed workload, then inspect:

* where the hottest keys physically live (levels/tiers) vs where they
  live under vanilla RocksDB on identical hardware and traffic;
* per-file popularity scores at each level (the SST-selection signal);
* the tracker's CLOCK distribution and the mapper's pin probabilities.

Run:  python examples/tiering_deep_dive.py
"""

from collections import Counter

from repro.bench import SystemConfig, WorkloadRunner, build_system
from repro.common.rng import fnv1a_64
from repro.workloads import YCSBConfig, YCSBWorkload

N_KEYS = 40_000


def age(system: str):
    config = SystemConfig(system=system, layout_code="NNNTQ", cache_fraction=0.05)
    base = YCSBConfig(record_count=N_KEYS, operation_count=1, warmup_operations=120_000)
    workload = YCSBWorkload(base)
    db = build_system(config, workload)
    runner = WorkloadRunner(db)
    runner.load(workload)
    runner.warmup(workload)
    return db, workload


def hot_key_indexes(top: int):
    """The scrambled-zipfian ranks map to these key indexes."""
    return [fnv1a_64(rank.to_bytes(8, "little")) % N_KEYS for rank in range(top)]


def placement(db, workload, indexes):
    where = Counter()
    for index in indexes:
        where[db.get(workload.key(index)).served_by] += 1
    return where


def main() -> None:
    print("Aging RocksDB and PrismDB with 120k ops of zipf-0.99 95/5 traffic...\n")
    rocks, workload = age("rocksdb")
    prism, _ = age("prismdb")

    hot = hot_key_indexes(500)
    print("Placement of the 500 hottest keys (rank 0-499):")
    for name, db in (("RocksDB", rocks), ("PrismDB", prism)):
        spots = placement(db, workload, hot)
        pretty = ", ".join(f"{k}:{v}" for k, v in spots.most_common())
        print(f"  {name:8s} {pretty}")

    print("\nPer-level popularity scores of PrismDB's files (top 3 per level):")
    for level in range(prism.manifest.num_levels):
        files = prism.manifest.files(level)
        scores = sorted((f.popularity_score for f in files), reverse=True)[:3]
        tier = prism.layout.tier_for_level(level).spec.name
        print(f"  L{level} ({tier}): {len(files):4d} files, top scores {[round(s) for s in scores]}")

    print("\nTracker CLOCK distribution (fractions):")
    fractions = prism.mapper.fractions()
    for clock, fraction in enumerate(fractions):
        bar = "#" * int(fraction * 50)
        print(f"  clock {clock}: {fraction * 100:5.1f}% {bar}")

    threshold = prism.prism_options.pinning_threshold
    print(f"\nPin probability per CLOCK value at threshold {threshold:.0%}:")
    for clock in range(3, -1, -1):
        probability = prism.mapper.pin_probability(clock, threshold)
        print(f"  clock {clock}: {probability:.2f}")

    stats = prism.executor.stats
    print(
        f"\npinned {stats.records.get('pinned', 0)} records, pulled up "
        f"{stats.records.get('pulled_up', 0)} from lower tiers; "
        f"{stats.compactions} compactions "
        f"(RocksDB did {rocks.executor.stats.compactions})"
    )


if __name__ == "__main__":
    main()

"""Wall-clock microbenchmarks for the simulator's hot primitives.

Everything else in ``repro.bench`` reports *simulated* time; this module
is the one place that measures *real* wall-clock, because the
simulator's usefulness depends on how fast it turns the crank. Each
benchmark isolates one primitive that profiling showed on the hot path —
block decode/search, bloom add/probe, the compaction merge, zipfian
sampling, metrics counter updates — plus one end-to-end smoke workload
measured in operations per wall second.

Methodology: every benchmark is a closure performing ``n`` inner
operations per call. The harness runs one warmup call (JIT-free Python
still benefits: allocator warm, branch caches, lazily built tables),
then ``repeats`` timed calls, and reports the *best* repetition — the
standard way to strip scheduler noise from a single-threaded benchmark —
alongside the median for honesty about variance.

Usage::

    python -m repro.bench micro                 # full suite
    python -m repro.bench micro --quick         # CI-sized, a few seconds
    python -m repro.bench micro --filter bloom  # substring selection
    python -m repro.bench micro --json out.json # machine-readable dump
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

#: (inner ops per repetition, timed repetitions) by scale.
_SCALES = {
    "full": (20_000, 5),
    "quick": (2_000, 3),
}

#: Benchmarks too heavy to run at the standard inner-op count get a
#: divisor; e2e runs a whole workload per "op" batch.
_HEAVY_DIVISOR = 10


@dataclass
class MicroResult:
    """One benchmark's timing: best/median ns per op across repetitions."""

    name: str
    inner_ops: int
    repeats: int
    best_ns: float
    median_ns: float

    @property
    def ops_per_sec(self) -> float:
        return 1e9 / self.best_ns if self.best_ns > 0 else 0.0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "inner_ops": self.inner_ops,
            "repeats": self.repeats,
            "best_ns_per_op": self.best_ns,
            "median_ns_per_op": self.median_ns,
            "ops_per_sec": self.ops_per_sec,
        }


def _time_one(op: Callable[[int], int | None], n: int, repeats: int) -> tuple[float, float]:
    """Run ``op(n)`` once warm then ``repeats`` timed; (best, median) ns/op.

    ``op`` may return the number of operations it actually performed
    (batch-granular benchmarks overshoot ``n``); ``None`` means exactly
    ``n``.
    """
    op(n)  # warmup
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        actual = op(n)
        elapsed = time.perf_counter() - start
        samples.append(elapsed * 1e9 / (actual if actual else n))
    samples.sort()
    return samples[0], samples[len(samples) // 2]


# ----------------------------------------------------------------------
# Benchmark factories. Each returns (callable(n), heavy) where the
# callable performs n inner operations; heavy benchmarks run at a
# reduced inner count. Setup cost stays outside the timed region.
# ----------------------------------------------------------------------
def _records(count: int, value_bytes: int = 64):
    from repro.lsm.record import Record, ValueKind

    return [
        Record(f"key{i:06d}".encode(), i + 1, ValueKind.PUT, b"v" * value_bytes)
        for i in range(count)
    ]


def _bench_block_build():
    from repro.lsm.block import DataBlockBuilder

    records = _records(40)

    def op(n: int) -> None:
        for _ in range(n):
            builder = DataBlockBuilder(1 << 20)
            for record in records:
                builder.add(record)
            builder.finish()

    return op, True


def _bench_block_decode():
    from repro.lsm.block import DataBlock, DataBlockBuilder

    records = _records(40)
    builder = DataBlockBuilder(1 << 20)
    for record in records:
        builder.add(record)
    buf = builder.finish()

    def op(n: int) -> None:
        for _ in range(n):
            DataBlock(buf).records()

    return op, True


def _bench_block_point_search():
    """The read path's unit of work: parse trailer, binary-search, decode one."""
    from repro.lsm.block import DataBlock, DataBlockBuilder

    records = _records(40)
    builder = DataBlockBuilder(1 << 20)
    for record in records:
        builder.add(record)
    buf = builder.finish()
    keys = [record.user_key for record in records]
    n_keys = len(keys)

    def op(n: int) -> None:
        for i in range(n):
            DataBlock(buf).search(keys[i % n_keys])

    return op, False


def _bench_bloom_add():
    from repro.lsm.bloom import BloomFilter

    keys = [f"bloomkey{i:07d}".encode() for i in range(10_000)]

    def op(n: int) -> None:
        done = 0
        while done < n:
            batch = keys[: min(n - done, len(keys))]
            BloomFilter.for_capacity(len(keys)).add_many(batch)
            done += len(batch)

    return op, False


def _bench_bloom_probe_hit():
    from repro.lsm.bloom import BloomFilter

    keys = [f"bloomkey{i:07d}".encode() for i in range(10_000)]
    bloom = BloomFilter.for_capacity(len(keys))
    bloom.add_many(keys)
    n_keys = len(keys)

    def op(n: int) -> None:
        may_contain = bloom.may_contain
        for i in range(n):
            may_contain(keys[i % n_keys])

    return op, False


def _bench_bloom_probe_miss():
    from repro.lsm.bloom import BloomFilter

    keys = [f"bloomkey{i:07d}".encode() for i in range(10_000)]
    bloom = BloomFilter.for_capacity(len(keys))
    bloom.add_many(keys)
    absent = [f"absentkey{i:07d}".encode() for i in range(10_000)]
    n_keys = len(absent)

    def op(n: int) -> None:
        may_contain = bloom.may_contain
        for i in range(n):
            may_contain(absent[i % n_keys])

    return op, False


def _bench_merge_records():
    """Compaction's merge: 4 pre-sorted runs through merge_records."""
    from repro.lsm.iterators import merge_records
    from repro.lsm.record import Record, ValueKind

    total = 10_000
    runs = [
        [
            Record(f"k{i:07d}".encode(), i + 1, ValueKind.PUT, b"v" * 16)
            for i in range(j, total, 4)
        ]
        for j in range(4)
    ]

    def op(n: int) -> int:
        done = 0
        while done < n:
            for record in merge_records(runs):
                pass
            done += total
        return done

    return op, True


def _bench_zipfian_sample():
    import random

    from repro.workloads.zipfian import ScrambledZipfianGenerator

    generator = ScrambledZipfianGenerator(100_000, 0.99, random.Random(0))

    def op(n: int) -> None:
        next_index = generator.next_index
        for _ in range(n):
            next_index()

    return op, False


def _bench_zipfian_setup():
    """Generator construction: dominated by the zeta sum before caching."""
    import random

    from repro.workloads import zipfian

    def op(n: int) -> None:
        for _ in range(n):
            zipfian._zeta.cache_clear()
            zipfian.ScrambledZipfianGenerator(50_000, 0.99, random.Random(0))

    return op, True


def _bench_metrics_counter():
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()

    def op(n: int) -> None:
        counter = registry.counter
        for _ in range(n):
            counter("micro.bench", kind="inc").inc()

    return op, False


def _make_attribution_db():
    """A small pre-loaded DB whose gets mix cache hits and device reads."""
    from repro.common import KIB
    from repro.lsm import DBOptions, LsmDB

    options = DBOptions(
        memtable_bytes=4 * KIB,
        target_file_bytes=4 * KIB,
        level1_target_bytes=8 * KIB,
        level_size_multiplier=4,
        block_bytes=512,
        block_cache_bytes=16 * KIB,
    )
    db = LsmDB.create("NNNTQ", options)
    keys = [f"key{i:05d}".encode() for i in range(600)]
    for key in keys:
        db.put(key, b"x" * 64)
    return db, keys


def _bench_attribution_off():
    """Baseline read path: the disabled-attribution single branch."""
    db, keys = _make_attribution_db()
    n_keys = len(keys)

    def op(n: int) -> None:
        get = db.get
        for i in range(n):
            get(keys[i % n_keys])

    return op, False


def _bench_attribution_on():
    """Same reads with a live OpContext: measures the tentpole's overhead
    (allocation + per-charge dict updates) against attribution.get_off."""
    from repro.obs.attribution import OpContext

    db, keys = _make_attribution_db()
    n_keys = len(keys)

    def op(n: int) -> None:
        get = db.get
        for i in range(n):
            get(keys[i % n_keys], ctx=OpContext("read"))

    return op, False


def _bench_block_zero_copy():
    """Point search over a block windowed inside its 'file', as a data
    block fetch decodes it: no bytes copy between the file and the search."""
    from repro.lsm.block import DataBlock, DataBlockBuilder

    records = _records(40)
    builder = DataBlockBuilder(1 << 20)
    for record in records:
        builder.add(record)
    payload = builder.finish()
    # Embed the block mid-"file", as BlockCache.data_block windows it.
    file_bytes = b"\x00" * 128 + payload + b"\x00" * 128
    keys = [record.user_key for record in records]
    n_keys = len(keys)

    def op(n: int) -> None:
        for i in range(n):
            DataBlock(file_bytes, 128, len(payload)).search(keys[i % n_keys])

    return op, True


def _bench_runner_batched():
    """Batched YCSB op generation: RNG draws + batch assembly, per op."""
    from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

    config = YCSBConfig.read_update(
        50, record_count=1_000, operation_count=2_000, seed=0
    )

    def op(n: int) -> int:
        total = 0
        while total < n:
            workload = YCSBWorkload(config)
            for batch in workload.run_batches():
                total += len(batch.kinds)
        return total

    return op, True


def _bench_fleet_route():
    """The router's per-request cost: hash the key, bisect the ring."""
    from repro.fleet.router import ConsistentHashRouter

    router = ConsistentHashRouter(16, vnodes=64)
    keys = [b"t00-%010d" % i for i in range(8_192)]
    n_keys = len(keys)

    def op(n: int) -> None:
        shard_for_key = router.shard_for_key
        for i in range(n):
            shard_for_key(keys[i % n_keys])

    return op, False


def _bench_fleet_merge_results():
    """The fleet merge path: fold per-shard artifacts into one result."""
    from repro.bench.harness import SystemConfig, run_experiment
    from repro.fleet.merge import merge_run_results
    from repro.workloads.ycsb import YCSBConfig

    shards = [
        run_experiment(
            SystemConfig(system="prismdb", layout_code="NNNTQ", seed=seed),
            YCSBConfig.read_update(
                50, record_count=500, operation_count=800, seed=seed
            ),
            label=f"micro/shard{seed}",
            sample_interval_ms=10.0,
        )
        for seed in range(4)
    ]

    def op(n: int) -> int:
        merges = max(1, n // _MERGE_SHARDS)
        for _ in range(merges):
            merge_run_results(shards, label="micro/fleet")
        return merges * _MERGE_SHARDS

    return op, True


#: fleet.merge_results folds whole artifacts; its "inner op" is one
#: shard result merged, so n is scaled by the shard count per merge.
_MERGE_SHARDS = 4


def compaction_merge_replay():
    """A fixed 2,000-record leveled job, replayable; ``(replay, records)``.

    Builds one upper and two overlapping lower tables once;
    ``replay(router)`` runs the same L1->L2 job through a fresh
    manifest/executor pair — the inputs are immutable SSTables, so every
    execution re-reads the same spans and does the merge itself (span
    scan, key/seqno ordering, routing, fused emission), not table
    construction. Shared by the micro below and the merge's tier-1 call
    budget (tests/lsm/test_encoded_merge.py).
    """
    from repro.common import KIB, SimClock
    from repro.lsm.block_cache import BlockCache
    from repro.lsm.compaction import (
        CompactionExecutor,
        CompactionJob,
        LargestFilePicker,
    )
    from repro.lsm.layout import build_layout
    from repro.lsm.options import DBOptions
    from repro.lsm.record import Record, ValueKind
    from repro.lsm.sstable import SSTableBuilder
    from repro.lsm.version import LevelManifest
    from repro.storage import StorageBackend

    options = DBOptions(
        memtable_bytes=4 * KIB,
        target_file_bytes=64 * KIB,
        level1_target_bytes=128 * KIB,
        level_size_multiplier=4,
        block_bytes=4 * KIB,
    )
    clock = SimClock()
    backend = StorageBackend(clock)
    layout = build_layout("NNNNN", options, clock)

    def build_table(level: int, keys) -> object:
        builder = SSTableBuilder(
            backend,
            layout.tier_for_level(level),
            block_bytes=options.block_bytes,
            target_file_bytes=1 << 30,
        )
        for seqno, key in enumerate(sorted(keys), start=1):
            builder.add(Record(key, seqno, ValueKind.PUT, b"v" * 32))
        table, _ = builder.finish()
        return table

    upper = [build_table(1, [f"k{i:06d}".encode() for i in range(0, 2_000, 2)])]
    lower = [
        build_table(2, [f"k{i:06d}".encode() for i in range(0, 1_000, 2)]),
        build_table(2, [f"k{i:06d}".encode() for i in range(1_000, 2_000, 2)]),
    ]
    job = CompactionJob(
        style="leveled",
        upper_level=1,
        lower_level=2,
        upper_inputs=upper,
        lower_inputs=lower,
        upper_lo=upper[0].smallest_key,
        upper_hi=upper[0].largest_key,
        drop_tombstones=False,  # L2 is not the bottom of five levels
    )

    def replay(router) -> None:
        manifest = LevelManifest(options.num_levels)
        for table in upper:
            manifest.add_file(1, table)
        for table in lower:
            manifest.add_file(2, table)
        executor = CompactionExecutor(
            backend, manifest, layout, options, BlockCache(64 * KIB),
            LargestFilePicker(), router,
        )
        executor.execute(job)
        # The merge deletes its inputs; resurrect them so the next
        # replay runs the identical job (reads address the SimFile
        # object directly, so flipping the tombstone and re-allocating
        # tier capacity is all a replay needs).
        for table in upper + lower:
            file = table.file
            if file.deleted:
                file.deleted = False
                file.tier.allocate(file.size)

    return replay, 2_000


def _bench_compaction_encoded_merge():
    """The compaction merge under ``CompactDownRouter``, per record merged."""
    from repro.lsm.compaction import CompactDownRouter

    replay, records_per_merge = compaction_merge_replay()
    router = CompactDownRouter()

    def op(n: int) -> int:
        merges = max(1, n // records_per_merge)
        for _ in range(merges):
            replay(router)
        return merges * records_per_merge

    return op, True


def _codec_artifact():
    """One representative schema-2 artifact: timeline + attribution on."""
    from repro.bench.harness import SystemConfig, run_experiment
    from repro.workloads.ycsb import YCSBConfig

    return run_experiment(
        SystemConfig(system="prismdb", layout_code="NNNTQ", seed=0),
        YCSBConfig.read_update(50, record_count=500, operation_count=800, seed=0),
        label="micro/codec",
        sample_interval_ms=5.0,
        attribution_sample_every=1,
    )


def _bench_codec_encode():
    """Binary artifact codec, encode side: one full RunResult per op."""
    from repro.bench.codec import encode_result

    result = _codec_artifact()

    def op(n: int) -> None:
        for _ in range(n):
            encode_result(result)

    return op, True


def _bench_codec_decode():
    """Binary artifact codec, decode side: one full RunResult per op."""
    from repro.bench.codec import decode_result, encode_result

    blob = encode_result(_codec_artifact())

    def op(n: int) -> None:
        for _ in range(n):
            decode_result(blob)

    return op, True


def _bench_runner_read_fastlane():
    """The harness's grouped read dispatch: one fast-lane lookup per op."""
    db, keys = _make_attribution_db()
    n_keys = len(keys)

    def op(n: int) -> None:
        lookup = db.read_lane()
        for i in range(n):
            lookup(keys[i % n_keys])

    return op, False


def _table_builder():
    """``build(records) -> SSTable`` on one private NVM tier."""
    from repro.common import KIB, MIB, SimClock
    from repro.lsm.sstable import SSTableBuilder
    from repro.storage import NVM_SPEC, StorageBackend, StorageTier

    clock = SimClock()
    backend = StorageBackend(clock)
    tier = StorageTier("nvm", NVM_SPEC, 256 * MIB, clock)

    def build(records):
        builder = SSTableBuilder(
            backend, tier, block_bytes=4 * KIB, target_file_bytes=1 << 30
        )
        for record in records:
            builder.add(record)
        table, _ = builder.finish()
        return table

    return build


def _bench_version_candidates():
    """Point candidate lookup on a 700-file leveled level (fence bisect).

    Half the probed keys fall inside a file, half in the gap after it,
    so both outcomes of the range check are exercised.
    """
    from repro.lsm.record import Record, ValueKind
    from repro.lsm.version import LevelManifest

    build = _table_builder()
    manifest = LevelManifest(3)
    n_files = 700
    for i in range(n_files):
        manifest.add_file(1, build([
            Record(f"key{i:06d}a".encode(), 2 * i + 1, ValueKind.PUT, b"v"),
            Record(f"key{i:06d}m".encode(), 2 * i + 2, ValueKind.PUT, b"v"),
        ]))
    keys = [
        f"key{(i * 7919) % n_files:06d}{suffix}".encode()
        for i in range(4_096)
        for suffix in ("c", "x")
    ]
    n_keys = len(keys)

    def op(n: int) -> None:
        candidates_for_key = manifest.candidates_for_key
        for i in range(n):
            candidates_for_key(1, keys[i % n_keys])

    return op, False


def _bench_sstable_get_resident():
    """Probe of a warm table: resident filter/index, data block cached."""
    from repro.common import MIB
    from repro.lsm.block_cache import BlockCache

    records = _records(2_000)
    table = _table_builder()(records)
    cache = BlockCache(4 * MIB)
    keys = [records[(i * 7919) % len(records)].user_key for i in range(4_096)]
    n_keys = len(keys)
    for key in keys:  # pull every probed data block into the cache
        table.get(key, cache)

    def op(n: int) -> None:
        get = table.get
        for i in range(n):
            get(keys[i % n_keys], cache)

    return op, False


def _bench_db_scan_short():
    """A 25-key range scan on a loaded five-level RocksDB-like tree.

    The cache holds about a tenth of the data, so every scan mixes
    cached and device-loaded blocks; each opens one cursor per level and
    walks a block or two of the deepest. Reported per scan.
    """
    from repro.baselines import RocksDBLike
    from repro.common import KIB
    from repro.lsm import DBOptions

    options = DBOptions(
        memtable_bytes=16 * KIB,
        target_file_bytes=16 * KIB,
        level1_target_bytes=32 * KIB,
        level_size_multiplier=4,
        block_cache_bytes=96 * KIB,
    )
    db = RocksDBLike.create("NNNTQ", options)
    n_keys = 8_000
    keys = [f"key{i:06d}".encode() for i in range(n_keys)]
    for i in range(n_keys):  # scattered inserts: every level ends up populated
        db.put(keys[(i * 7919) % n_keys], b"v" * 100)
    assert all(db.manifest.file_count(level) for level in range(1, options.num_levels))
    starts = [keys[(i * 104_729) % (n_keys - 25)] for i in range(4_096)]
    n_starts = len(starts)

    def op(n: int) -> None:
        scan = db.scan
        for i in range(n):
            scan(starts[i % n_starts], 25)

    return op, True


def _bench_e2e_smoke():
    """End-to-end: the perf gate's seeded YCSB-A smoke run, wall-clock."""
    from repro.bench.harness import SystemConfig, run_experiment
    from repro.workloads.ycsb import YCSBConfig

    def op(n: int) -> int:
        runs = max(1, n // _E2E_OPS_PER_RUN)
        for _ in range(runs):
            config = SystemConfig(system="prismdb", layout_code="NNNTQ", seed=0)
            workload = YCSBConfig.read_update(
                50, record_count=3_000, operation_count=5_000, seed=0
            )
            run_experiment(config, workload, label="micro/e2e")
        return runs * _E2E_OPS_PER_RUN

    return op, True


#: name -> (description, factory). Order is presentation order.
BENCHMARKS: dict[str, tuple[str, Callable]] = {
    "block.build": ("encode a 40-record data block", _bench_block_build),
    "block.decode": ("decode all records of a 4KB block", _bench_block_decode),
    "block.point_search": ("lazy point lookup in an encoded block", _bench_block_point_search),
    "block.zero_copy": ("point search over a block windowed in its file", _bench_block_zero_copy),
    "bloom.add": ("bulk-insert keys into a bloom filter", _bench_bloom_add),
    "bloom.probe_hit": ("membership probe, key present", _bench_bloom_probe_hit),
    "bloom.probe_miss": ("membership probe, key absent", _bench_bloom_probe_miss),
    "merge.records": ("4-way sorted-run merge, per record", _bench_merge_records),
    "compaction.encoded_merge": ("encoded leveled compaction, per record", _bench_compaction_encoded_merge),
    "zipfian.sample": ("scrambled zipfian key draw", _bench_zipfian_sample),
    "zipfian.setup": ("generator construction, zeta cache cold", _bench_zipfian_setup),
    "runner.batched": ("batched YCSB op generation, per op", _bench_runner_batched),
    "runner.read_fastlane": ("read fast-lane lookup, per op", _bench_runner_read_fastlane),
    "version.candidates": ("point candidate lookup, 700-file level", _bench_version_candidates),
    "sstable.get_resident": ("probe of a resident table, cache hit", _bench_sstable_get_resident),
    "db.scan_short": ("25-key scan, 5-level tree, cache < data (per scan)", _bench_db_scan_short),
    "metrics.counter_inc": ("labelled counter lookup + increment", _bench_metrics_counter),
    "attribution.get_off": ("point read, attribution disabled", _bench_attribution_off),
    "attribution.get_on": ("point read with a live OpContext", _bench_attribution_on),
    "codec.encode": ("binary-encode a full run artifact", _bench_codec_encode),
    "codec.decode": ("decode a binary run artifact", _bench_codec_decode),
    "fleet.route": ("consistent-hash shard lookup, 16 shards", _bench_fleet_route),
    "fleet.merge_results": ("merge 4 shard artifacts (per shard folded)", _bench_fleet_merge_results),
    "e2e.smoke": ("full 5k-op YCSB-A smoke run (per DB operation)", _bench_e2e_smoke),
}

#: e2e runs whole workloads; its "inner op" is one *database* operation,
#: so scale its count to workload size instead of the generic divisor.
_E2E_OPS_PER_RUN = 5_000


def run_micro(
    *,
    quick: bool = False,
    name_filter: str | None = None,
    repeats: int | None = None,
) -> list[MicroResult]:
    """Run the (filtered) suite and return per-benchmark results."""
    inner, default_repeats = _SCALES["quick" if quick else "full"]
    repeats = repeats or default_repeats
    # Benchmark names are all lowercase, so lowering the filter makes the
    # match case-insensitive.
    name_filter = name_filter.lower() if name_filter else None
    results = []
    for name, (_, factory) in BENCHMARKS.items():
        if name_filter and name_filter not in name:
            continue
        op, heavy = factory()
        if name == "e2e.smoke":
            # One repetition = one-to-three whole workloads; reported
            # per *database* operation.
            n = _E2E_OPS_PER_RUN * (1 if quick else 3)
            best, median = _time_one(op, n, 1 if quick else repeats)
        else:
            n = max(1, inner // _HEAVY_DIVISOR) if heavy else inner
            best, median = _time_one(op, n, repeats)
        results.append(
            MicroResult(
                name=name,
                inner_ops=n,
                repeats=repeats,
                best_ns=best,
                median_ns=median,
            )
        )
    return results


def format_micro(results: list[MicroResult]) -> str:
    """Fixed-width table matching the repo's experiment output style."""
    header = f"{'benchmark':24s} {'best':>12s} {'median':>12s} {'ops/sec':>14s}"
    lines = [header, "-" * len(header)]
    for result in results:
        desc = BENCHMARKS[result.name][0]
        lines.append(
            f"{result.name:24s} {_fmt_ns(result.best_ns):>12s} "
            f"{_fmt_ns(result.median_ns):>12s} {result.ops_per_sec:>14,.0f}"
            f"  {desc}"
        )
    return "\n".join(lines)


def _fmt_ns(ns: float) -> str:
    if ns >= 1e6:
        return f"{ns / 1e6:.2f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f} us"
    return f"{ns:.0f} ns"


def add_micro_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized counts: a few seconds total")
    parser.add_argument("--filter", default=None, metavar="SUBSTR",
                        help="only run benchmarks whose name contains SUBSTR "
                             "(case-insensitive)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repetitions per benchmark (default by scale)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="also write results as JSON")


def run_micro_command(args: argparse.Namespace) -> int:
    results = run_micro(
        quick=args.quick, name_filter=args.filter, repeats=args.repeats
    )
    if not results:
        print(f"no benchmark matches filter {args.filter!r}", file=sys.stderr)
        return 2
    print(format_micro(results))
    if args.json:
        payload = {
            "schema": 1,
            "scale": "quick" if args.quick else "full",
            "benchmarks": [result.to_json() for result in results],
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote JSON results to {args.json}", file=sys.stderr)
    return 0

"""The per-layer ledger of a traced run.

Two sources, both read from outside the program:

* the tracer's per-entry spans (calls, inclusive and self time), and
* deltas over the measured region of the program's own public counters
  (``db.stats``, cache/compaction/tracker/placer/device stats and the
  registry's queue-penalty histograms).

Every layer gets ``calls_per_op`` and ``self_us_per_op``; the explicit
``residual.self_us_per_op`` is the traced whole minus the layers, so the
parts sum to the whole by construction. The residual holds the tracer's
own overhead (also reported on its own) plus whatever ran outside every
span (:func:`attribute_overhead`).
"""

from __future__ import annotations

import math

from repro.lsm.block_cache import BlockType
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, percentile_from_buckets

from perfbench.spans import CORE_LAYERS, FLEET_LAYERS
from perfbench.tracer import SpanTracer


def db_counters(db) -> dict[str, float]:
    """Flat snapshot of one database's cumulative public counters."""
    stats = db.stats
    snap: dict[str, float] = {
        "sim_now_usec": db.clock.now,
        "reads": stats.user_reads,
        "writes": stats.user_writes,
        "scans": stats.user_scans,
        "user_write_bytes": stats.user_write_bytes,
        "flush_count": stats.flush_count,
        "flush_bytes": stats.flush_bytes,
        "wal_bytes": db.wal.total_bytes if db.wal is not None else 0,
        "bloom_negative_skips": stats.bloom_negative_skips,
        "tables_probed": sum(db.file_read_counts.values()),
        "files_created": db.backend.stats.files_created,
        "cache_evictions": db.cache.stats.evictions,
        "cache_hits": sum(db.cache.stats.hits.values()),
        "cache_misses": sum(db.cache.stats.misses.values()),
        "cache_data_hits": db.cache.stats.hits.get(BlockType.DATA, 0),
        "cache_data_misses": db.cache.stats.misses.get(BlockType.DATA, 0),
    }
    fast_spec = db.layout.tier_for_level(0).spec
    for source, count in stats.reads_by_source.as_dict().items():
        snap[f"reads_from:{source}"] = count
        on_fast_tier = source == "memtable" or (
            source.startswith("L") and db.layout.tier_for_level(int(source[1:])).spec is fast_spec
        )
        if on_fast_tier:
            snap["reads_fast_tier"] = snap.get("reads_fast_tier", 0) + count
        if source.startswith("L"):
            snap["reads_from_tables"] = snap.get("reads_from_tables", 0) + count
    compaction = db.executor.stats
    snap.update(
        compactions=compaction.compactions,
        trivial_moves=compaction.trivial_moves,
        compaction_bytes_written=compaction.bytes_written,
        compaction_records_in=compaction.records_in,
    )
    tracker = getattr(db, "tracker", None)
    if tracker is not None:
        snap.update(
            tracker_evictions=tracker.stats.evictions,
            tracker_hand_steps=tracker.stats.hand_steps,
            placer_considered=db.placer.stats.considered,
            placer_pinned=db.placer.stats.pinned,
            placer_pulled_up=db.placer.stats.pulled_up,
        )
    for tier in db.layout.tiers:
        device = tier.device.stats
        snap["device_read_bytes"] = snap.get("device_read_bytes", 0) + device.bytes_read
        snap["device_write_bytes"] = snap.get("device_write_bytes", 0) + device.bytes_written
        snap["device_calls"] = snap.get("device_calls", 0) + device.reads + device.writes
        snap[f"busy_usec:{tier.name}"] = device.busy_usec
    for labels, hist in db.metrics.series("device.queue_penalty_usec"):
        for index, count in enumerate(hist.bucket_counts):
            snap[f"queue_penalty:{labels['tier']}:{index}"] = count
        # A high-water mark, not a counter: counters_delta keeps it as is.
        snap[f"max:queue_penalty:{labels['tier']}"] = max(0.0, hist.maximum)
    return snap


def counters_delta(after: dict[str, float], before: dict[str, float] | None) -> dict[str, float]:
    before = before or {}
    return {
        key: value if key.startswith("max:") else value - before.get(key, 0)
        for key, value in after.items()
    }


def _device_sim(delta: dict[str, float], clients: int) -> tuple[float, float]:
    """(max busy fraction, max queue-penalty p99) over one db's tiers.

    The closed loop advances the clock by latency / clients, so a device
    can be busy for up to ``clients`` x the elapsed simulated time; the
    fraction is of that capacity. The queue-penalty histograms use the
    registry's default latency buckets.
    """
    bounds = DEFAULT_LATENCY_BUCKETS
    capacity = delta.get("sim_now_usec", 0.0) * clients
    busy = [v / capacity for k, v in delta.items() if k.startswith("busy_usec:") and capacity > 0]
    per_tier: dict[str, list[int]] = {}
    for key, value in delta.items():
        if key.startswith("queue_penalty:"):
            _, tier, index = key.rsplit(":", 2)
            buckets = per_tier.setdefault(tier, [0] * (len(bounds) + 1))
            buckets[int(index)] = int(value)
    p99 = [
        percentile_from_buckets(
            bounds, buckets, 99.0, maximum=delta.get(f"max:queue_penalty:{tier}")
        )
        for tier, buckets in per_tier.items()
    ]
    return max(busy, default=0.0), max(p99, default=0.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: list[float], pct: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered), max(1, math.ceil(pct / 100.0 * len(ordered)))) - 1]


def build_ledger(
    tracer: SpanTracer,
    *,
    ops: int,
    traced_wall_s: float,
    db_deltas: list[dict[str, float]],
    tracker_occupancy: float,
    timeline_samples: int,
    shards: int,
    clients: int,
) -> dict:
    """Assemble the ledger: ``metrics`` (flat, name -> value) plus the
    per-entry span table it was derived from."""
    layers = tracer.by_layer()
    total = {key: sum(delta.get(key, 0) for delta in db_deltas)
             for key in {k for delta in db_deltas for k in delta}}
    count = total.get

    columns = {"calls": tracer.calls, "incl": tracer.incl_ns, "units": tracer.units}

    def entry(name: str, field: str) -> float:
        eid = tracer.entry_id(name)
        return 0.0 if eid is None else columns[field][eid]

    m: dict[str, float] = {}
    for layer in CORE_LAYERS:
        m[f"{layer}.calls_per_op"] = layers.get(layer, {"calls": 0})["calls"] / ops
    m["trace.host_us_per_op"] = traced_wall_s * 1e6 / ops
    m["trace.spans"] = sum(tracer.calls)
    m["trace.unresolved_spans"] = len(tracer.unresolved)

    reads, writes, scans = count("reads", 0), count("writes", 0), count("scans", 0)
    m["workloads.batches"] = entry("YCSBWorkload.run_batches", "calls") + entry(
        "ShardWorkload.run_batches", "calls")
    m["lsm.db.read_calls"] = reads
    m["lsm.db.write_calls"] = writes
    m["lsm.db.scan_calls"] = scans
    m["lsm.db.tables_probed_per_read"] = _ratio(count("tables_probed", 0), reads)
    m["lsm.db.reads_memtable_frac"] = _ratio(count("reads_from:memtable", 0), reads)
    m["lsm.db.reads_fast_tier_frac"] = _ratio(count("reads_fast_tier", 0), reads)
    memtable_gets = entry("Memtable.get", "calls")
    m["lsm.memtable.hit_frac"] = _ratio(count("reads_from:memtable", 0), memtable_gets)
    m["lsm.version.candidates_per_call"] = _ratio(
        entry("LevelManifest.candidates_for_key", "units"),
        entry("LevelManifest.candidates_for_key", "calls"))
    m["lsm.sstable_builder.files_built"] = count("files_created", 0)
    m["lsm.sstable_builder.bytes_built"] = count("flush_bytes", 0) + count(
        "compaction_bytes_written", 0)
    probes = entry("BloomFilter.may_contain", "calls")
    negatives = count("bloom_negative_skips", 0)
    m["lsm.bloom.probes_per_op"] = probes / ops
    m["lsm.bloom.negative_frac"] = _ratio(negatives, probes)
    m["lsm.bloom.false_positive_frac"] = _ratio(
        probes - negatives - count("reads_from_tables", 0), probes)
    m["lsm.bloom.build_us_per_key"] = _ratio(
        entry("BloomFilter.add_many", "incl") / 1e3, entry("BloomFilter.add_many", "units"))
    m["lsm.block.searches_per_op"] = entry("DataBlock.search", "calls") / ops
    m["lsm.block.blocks_decoded_per_op"] = entry("DataBlock.__init__", "calls") / ops
    m["lsm.block_cache.hit_rate"] = _ratio(
        count("cache_hits", 0), count("cache_hits", 0) + count("cache_misses", 0))
    m["lsm.block_cache.data_hit_rate"] = _ratio(
        count("cache_data_hits", 0), count("cache_data_hits", 0) + count("cache_data_misses", 0))
    m["lsm.block_cache.evictions_per_op"] = count("cache_evictions", 0) / ops
    m["lsm.wal.appends_per_op"] = entry("WriteAheadLog.append", "calls") / ops
    m["lsm.wal.bytes_per_user_byte"] = _ratio(count("wal_bytes", 0), count("user_write_bytes", 0))
    flushes = count("flush_count", 0)
    m["lsm.flush.count"] = flushes
    m["lsm.flush.us_per_flush"] = _ratio(entry("LsmDB._flush_memtable", "incl") / 1e3, flushes)
    compaction_us = entry("CompactionExecutor.maybe_compact", "incl") / 1e3
    records_in = count("compaction_records_in", 0)
    m["lsm.compaction.jobs"] = count("compactions", 0)
    m["lsm.compaction.total_us_per_op"] = compaction_us / ops
    m["lsm.compaction.us_per_record_in"] = _ratio(compaction_us, records_in)
    m["lsm.compaction.records_in_per_op"] = records_in / ops
    m["lsm.compaction.bytes_written_per_user_byte"] = _ratio(
        count("compaction_bytes_written", 0), count("user_write_bytes", 0))
    m["lsm.compaction.trivial_moves"] = count("trivial_moves", 0)
    stalls = [ns / 1e6 for ns in tracer.scratch.get("stall_ns", [])]
    m["lsm.compaction.stall_ops_frac"] = _ratio(len(stalls), writes)
    m["lsm.compaction.stall_p99_ms"] = _percentile(stalls, 99.0)
    m["core.tracker.evictions_per_read"] = _ratio(count("tracker_evictions", 0), reads)
    m["core.tracker.hand_steps_per_read"] = _ratio(count("tracker_hand_steps", 0), reads)
    m["core.tracker.occupancy_frac"] = tracker_occupancy
    considered = count("placer_considered", 0)
    m["core.placer.route_calls_per_op"] = considered / ops
    m["core.placer.pinned_frac"] = _ratio(count("placer_pinned", 0), considered)
    m["core.placer.pulled_up_per_op"] = count("placer_pulled_up", 0) / ops
    m["storage.device.read_bytes_per_op"] = count("device_read_bytes", 0) / ops
    m["storage.device.write_bytes_per_op"] = count("device_write_bytes", 0) / ops
    device_sim = [_device_sim(delta, clients) for delta in db_deltas]
    m["storage.device.busy_frac_max"] = max((busy for busy, _ in device_sim), default=0.0)
    m["storage.device.queue_penalty_p99_usec"] = max((p99 for _, p99 in device_sim), default=0.0)
    m["obs.timeline.samples"] = timeline_samples

    per_shard = max(1, shards)
    m["fleet.runner.shard_run_s_sum"] = entry("run_shard", "incl") / 1e9
    m["fleet.router.split_ms_per_shard"] = entry("_split_by_owned", "incl") / 1e6 / per_shard
    m["fleet.workload.init_ms_per_shard"] = entry("ShardWorkload.__init__", "incl") / 1e6 / per_shard
    m["bench.codec.encode_ms_per_shard"] = entry("encode_result", "incl") / 1e6 / per_shard
    m["bench.codec.decode_ms_per_shard"] = entry("decode_result", "incl") / 1e6 / per_shard
    m["bench.codec.bytes_per_shard"] = entry("encode_result", "units") / per_shard
    m["fleet.merge.add_ms_per_shard"] = entry("ShardAccumulator.add", "incl") / 1e6 / per_shard
    m["fleet.merge.finish_ms"] = entry("ShardAccumulator.finish", "incl") / 1e6
    m["fleet.pool.contention_ms"] = entry("DevicePool.contention", "incl") / 1e6

    return {
        "metrics": m,
        "ops": ops,
        "layers": layers,
        "device_calls": count("device_calls", 0),
        "calibration": {
            "overhead_in_ns": tracer.overhead_in_ns,
            "overhead_out_ns": tracer.overhead_out_ns,
        },
        "unresolved": list(tracer.unresolved),
    }


ORACLE_LAYER = "perfbench.oracle"


def attribute_overhead(ledger: dict, untraced_us_per_op: float) -> dict[str, float]:
    """Per-layer self times with the tracer's overhead taken out.

    The no-op calibration gives the *shape* of one span's overhead: how
    much lands inside the span's own interval (``overhead_in_ns``, per
    call) and how much in its parent's self time (``overhead_out_ns``,
    per child span). In the real program a span costs more than around
    a no-op (argument packing, cache pressure), so the *size* is taken
    from the run itself: the overhead is scaled by the one factor that
    makes the program's layers sum to the untraced time of the same
    region. A layer never goes below zero. What remains of the traced
    whole — the overhead, the oracle's inline checks, time outside
    every span — is the residual.
    """
    ops = ledger["ops"]
    calibration = ledger["calibration"]
    rows = []  # (layer, raw self ns, overhead weight ns)
    for layer, row in ledger["layers"].items():
        if layer == ORACLE_LAYER:
            continue
        for entry in row["entries"].values():
            weight = (entry["calls"] * calibration["overhead_in_ns"]
                      + entry["children"] * calibration["overhead_out_ns"])
            rows.append((layer, entry["self_ns"], weight))
    target_ns = untraced_us_per_op * ops * 1e3

    def program_ns(scale: float) -> float:
        return sum(max(0.0, self_ns - scale * weight) for _, self_ns, weight in rows)

    scale = 0.0
    if program_ns(0.0) > target_ns and any(weight for _, _, weight in rows):
        low, high = 0.0, 1.0
        while program_ns(high) > target_ns and high < 1e6:
            low, high = high, high * 2.0
        for _ in range(60):
            scale = (low + high) / 2.0
            if program_ns(scale) > target_ns:
                low = scale
            else:
                high = scale
        scale = (low + high) / 2.0

    by_layer: dict[str, float] = {}
    removed_ns = 0.0
    for layer, self_ns, weight in rows:
        kept = max(0.0, self_ns - scale * weight)
        removed_ns += self_ns - kept
        by_layer[layer] = by_layer.get(layer, 0.0) + kept
    m = {f"{layer}.self_us_per_op": by_layer.get(layer, 0.0) / 1e3 / ops for layer in CORE_LAYERS}
    m["fleet.self_us_per_op"] = sum(by_layer.get(layer, 0.0) for layer in FLEET_LAYERS) / 1e3 / ops
    m["residual.self_us_per_op"] = ledger["metrics"]["trace.host_us_per_op"] - sum(m.values())
    m["trace.span_overhead_us_per_op"] = removed_ns / 1e3 / ops
    return m

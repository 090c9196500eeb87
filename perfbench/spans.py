"""The span table: which entry points of which layer the tracer wraps.

A layer is a module of ``repro`` (``lsm.sstable_builder`` and
``lsm.flush`` are the two exceptions: a class and a private method that
are worth a line of their own). Only *layer boundaries* are listed —
calls from one layer into another. Code a fast lane inlines from another
layer is charged to the layer that hosts the lane (``lsm.db``,
``lsm.compaction``); README.md says which.

``private=True`` marks entries that are not public API but are the
layer's only hot way in.
"""

from __future__ import annotations

from perfbench.tracer import SpanTarget as T


def _note_jobs(tracer, jobs, _dur) -> None:
    """maybe_compact ran at least one job inside the current write op."""
    if jobs:
        tracer.scratch["job_in_op"] = True


def _note_write(tracer, _result, dur) -> None:
    """Write-lane span: keep the host time of ops that contained a job."""
    if tracer.scratch.pop("job_in_op", False):
        tracer.scratch.setdefault("stall_ns", []).append(dur)


def _clear_job(tracer, _result, _dur) -> None:
    """A forced flush compacts outside any write op; do not carry the flag."""
    tracer.scratch.pop("job_in_op", None)


SPAN_TABLE: tuple[T, ...] = (
    # -- harness and workload generation --------------------------------
    T("bench.harness", "repro.bench.harness:WorkloadRunner.run"),
    T("bench.harness", "repro.bench.harness:WorkloadRunner.load"),
    T("bench.harness", "repro.bench.harness:WorkloadRunner.warmup"),
    T("bench.harness", "repro.bench.harness:WorkloadRunner.result"),
    T("bench.harness", "repro.bench.harness:build_system"),
    T("workloads", "repro.workloads.ycsb:YCSBWorkload.load_batches"),
    T("workloads", "repro.workloads.ycsb:YCSBWorkload.warmup_batches"),
    T("workloads", "repro.workloads.ycsb:YCSBWorkload.run_batches"),
    # -- engine front door ----------------------------------------------
    T("lsm.db", "repro.lsm.db:LsmDB._build_read_lane", private=True, factory=True),
    T("lsm.db", "repro.lsm.db:LsmDB.read_lane", factory=True),
    T("lsm.db", "repro.lsm.db:LsmDB.write_lane", factory=True, on_return=_note_write),
    T("lsm.db", "repro.lsm.db:LsmDB.get"),
    T("lsm.db", "repro.lsm.db:LsmDB.put"),
    T("lsm.db", "repro.lsm.db:LsmDB.scan"),
    T("lsm.db", "repro.lsm.db:LsmDB.flush", on_return=_clear_job),
    T("lsm.flush", "repro.lsm.db:LsmDB._flush_memtable", private=True),
    T("core.prismdb", "repro.core.prismdb:PrismDB.read_lane", factory=True),
    T("core.prismdb", "repro.core.prismdb:PrismDB.get"),
    # -- read path --------------------------------------------------------
    T("lsm.memtable", "repro.lsm.memtable:Memtable.get"),
    T("lsm.memtable", "repro.lsm.memtable:Memtable.add"),
    T("lsm.memtable", "repro.lsm.memtable:Memtable.scan_from"),
    T("lsm.memtable", "repro.lsm.memtable:Memtable.records"),
    T("lsm.version", "repro.lsm.version:LevelManifest.candidates_for_key",
      units=lambda args, result: len(result)),
    T("lsm.version", "repro.lsm.version:LevelManifest.files"),
    T("lsm.version", "repro.lsm.version:LevelManifest.runs"),
    T("lsm.version", "repro.lsm.version:LevelManifest.level_bytes"),
    T("lsm.version", "repro.lsm.version:LevelManifest.overlapping_files"),
    T("lsm.version", "repro.lsm.version:LevelManifest.add_file"),
    T("lsm.version", "repro.lsm.version:LevelManifest.add_run"),
    T("lsm.version", "repro.lsm.version:LevelManifest.remove_file"),
    T("lsm.sstable", "repro.lsm.sstable:SSTable.get"),
    T("lsm.sstable", "repro.lsm.sstable:SSTable.iter_from"),
    T("lsm.sstable", "repro.lsm.sstable:SSTable.read_all_spans"),
    T("lsm.sstable", "repro.lsm.sstable:SSTable.read_all_records"),
    T("lsm.bloom", "repro.lsm.bloom:BloomFilter.may_contain"),
    T("lsm.bloom", "repro.lsm.bloom:BloomFilter.for_capacity"),
    T("lsm.bloom", "repro.lsm.bloom:BloomFilter.add_many",
      units=lambda args, result: len(args[1])),
    T("lsm.bloom", "repro.lsm.bloom:BloomFilter.encode"),
    T("lsm.bloom", "repro.lsm.bloom:BloomFilter.decode"),
    T("lsm.block", "repro.lsm.block:DataBlock.__init__"),
    T("lsm.block", "repro.lsm.block:DataBlock.search"),
    T("lsm.block", "repro.lsm.block:DataBlock.records"),
    T("lsm.block", "repro.lsm.block:extend_spans_from"),
    T("lsm.block", "repro.lsm.block:extend_records_from"),
    T("lsm.block", "repro.lsm.block:DataBlockBuilder.add"),
    T("lsm.block", "repro.lsm.block:DataBlockBuilder.add_span"),
    T("lsm.block", "repro.lsm.block:DataBlockBuilder.finish"),
    T("lsm.block_cache", "repro.lsm.block_cache:BlockCache.get_or_load_decoded"),
    T("lsm.block_cache", "repro.lsm.block_cache:BlockCache.get_or_load"),
    T("lsm.block_cache", "repro.lsm.block_cache:BlockCache.record_resident_hit"),
    T("lsm.block_cache", "repro.lsm.block_cache:BlockCache.invalidate_file"),
    T("lsm.iterators", "repro.lsm.iterators:merge_records"),
    T("lsm.iterators", "repro.lsm.iterators:visible_records"),
    T("lsm.iterators", "repro.lsm.iterators:keyed_records"),
    T("lsm.iterators", "repro.lsm.iterators:merge_sorted_lists"),
    T("lsm.record", "repro.lsm.record:Record.decode_from"),
    T("lsm.record", "repro.lsm.record:Record.encode"),
    T("lsm.record", "repro.lsm.record:Record.encoded_size"),
    T("lsm.record", "repro.lsm.record:make_put_record"),
    # -- write path and background work -----------------------------------
    T("lsm.wal", "repro.lsm.wal:WriteAheadLog.append"),
    T("lsm.wal", "repro.lsm.wal:WriteAheadLog.truncate"),
    T("lsm.sstable_builder", "repro.lsm.sstable:SSTableBuilder.__init__"),
    T("lsm.sstable_builder", "repro.lsm.sstable:SSTableBuilder.add"),
    T("lsm.sstable_builder", "repro.lsm.sstable:SSTableBuilder.add_encoded"),
    # Called from the builder code that compaction's _OutputWriter inlines.
    T("lsm.sstable_builder", "repro.lsm.sstable:SSTableBuilder._flush_block", private=True),
    T("lsm.sstable_builder", "repro.lsm.sstable:SSTableBuilder.finish"),
    T("lsm.compaction", "repro.lsm.compaction:CompactionExecutor.maybe_compact",
      on_return=_note_jobs),
    T("lsm.compaction", "repro.lsm.compaction:CompactionExecutor.note_level_write"),
    # -- PrismDB's three components ---------------------------------------
    T("core.tracker", "repro.core.tracker:ClockTracker.on_read"),
    T("core.tracker", "repro.core.tracker:ClockTracker.run_evictions"),
    T("core.tracker", "repro.core.tracker:ClockTracker.clock_value"),
    T("core.tracker", "repro.core.tracker:ClockTracker.is_full"),
    T("core.placer", "repro.core.placer:ReadAwareRouter.begin_job"),
    T("core.placer", "repro.core.placer:ReadAwareRouter.route_up_key"),
    T("core.placer", "repro.core.placer:ReadAwareRouter.allows_trivial_move"),
    T("core.placer", "repro.core.placer:ReadAwareRouter.clock_value_fn"),
    T("core.placer", "repro.core.placer:LowestScorePicker.pick_files"),
    T("core.mapper", "repro.core.mapper:ClockDistributionMapper.on_insert"),
    T("core.mapper", "repro.core.mapper:ClockDistributionMapper.on_evict"),
    T("core.mapper", "repro.core.mapper:ClockDistributionMapper.on_change"),
    T("core.mapper", "repro.core.mapper:ClockDistributionMapper.should_pin_key"),
    # -- storage, clock, statistics, observability -------------------------
    T("storage.backend", "repro.storage.backend:StorageBackend.read"),
    T("storage.backend", "repro.storage.backend:StorageBackend.create_file"),
    T("storage.backend", "repro.storage.backend:StorageBackend.delete_file"),
    T("storage.device", "repro.storage.device:Device.read"),
    T("storage.device", "repro.storage.device:Device.write"),
    T("storage.device", "repro.storage.device:DeviceSpec.read_time_usec"),
    T("storage.device", "repro.storage.device:DeviceSpec.write_time_usec"),
    T("common.clock", "repro.common.clock:SimClock.advance"),
    T("common.stats", "repro.common.stats:LatencyRecorder.record"),
    T("common.stats", "repro.common.stats:LatencyRecorder.summary"),
    T("common.stats", "repro.common.stats:CounterSet.add"),
    T("obs.metrics", "repro.obs.metrics:Counter.inc"),
    T("obs.metrics", "repro.obs.metrics:Gauge.set"),
    T("obs.metrics", "repro.obs.metrics:Histogram.observe"),
    T("obs.metrics", "repro.obs.metrics:MetricsRegistry.counter"),
    T("obs.metrics", "repro.obs.metrics:MetricsRegistry.histogram"),
    T("obs.metrics", "repro.obs.metrics:MetricsRegistry.snapshot"),
    # The sampler's clock-observer hook: its only way in while a run is going.
    T("obs.timeline", "repro.obs.timeline:TimelineSampler._on_tick", private=True),
    T("obs.timeline", "repro.obs.timeline:TimelineSampler.mark_phase"),
    T("obs.timeline", "repro.obs.timeline:TimelineSampler.to_dict"),
    T("obs.timeline", "repro.obs.timeline:merge_timelines"),
    # -- fleet (traced in-process at jobs=1) --------------------------------
    T("fleet.runner", "repro.fleet.runner:run_fleet"),
    T("fleet.runner", "repro.fleet.runner:run_shard"),
    T("fleet.router", "repro.fleet.runner:_split_by_owned", private=True),
    T("fleet.workload", "repro.fleet.workload:ShardWorkload.__init__"),
    T("fleet.workload", "repro.fleet.workload:ShardWorkload.load_batches"),
    T("fleet.workload", "repro.fleet.workload:ShardWorkload.warmup_batches"),
    T("fleet.workload", "repro.fleet.workload:ShardWorkload.run_batches"),
    T("bench.codec", "repro.bench.codec:encode_result",
      units=lambda args, result: len(result)),
    T("bench.codec", "repro.bench.codec:decode_result"),
    T("fleet.merge", "repro.fleet.merge:ShardAccumulator.add"),
    T("fleet.merge", "repro.fleet.merge:ShardAccumulator.finish"),
    T("fleet.pool", "repro.fleet.pool:DevicePool.contention"),
    T("fleet.pool", "repro.fleet.pool:DevicePool.apply_penalty"),
)

#: Layers whose lines appear in the driver-facing ``per_layer`` list
#: with ``calls_per_op`` and ``self_us_per_op`` each.
CORE_LAYERS = (
    "workloads", "bench.harness", "lsm.db", "lsm.memtable", "lsm.version",
    "lsm.sstable", "lsm.sstable_builder", "lsm.bloom", "lsm.block",
    "lsm.block_cache", "lsm.iterators", "lsm.record", "lsm.wal", "lsm.flush",
    "lsm.compaction", "core.prismdb", "core.tracker", "core.placer",
    "core.mapper", "storage.backend", "storage.device", "common.clock",
    "common.stats", "obs.metrics", "obs.timeline",
)
#: Layers only ``fleet-mixed`` enters; reported as one ``fleet.self_us_per_op``
#: plus the named per-shard timings.
FLEET_LAYERS = ("fleet.runner", "fleet.router", "fleet.workload", "bench.codec",
                "fleet.merge", "fleet.pool")

"""Metric definitions: the one table BENCHMARK.json, the CLI, ``compare``
and the README glossary agree on.

``E2E`` lists every end-to-end metric the CLI prints. Two things differ
between the CLI and the driver contract's ``BENCHMARK.json``:

* ``driver=False`` marks metrics the contract's ``end_to_end`` list cannot
  carry, because it wants every metric on every workload, never zero, and
  never a time that reads the same on every run. The simulator's latency
  percentiles are such times: without device queueing a percentile is the
  fixed service time of one tier, identical for every seed. They stay in
  the CLI (where they repeat bit for bit) and reach the driver as
  bound-less ``sim.*`` entries of the traced run.
* ``bound`` is for *same-seed* comparisons (``python -m perfbench
  compare`` refuses anything else): simulated metrics repeat exactly
  there, so 1 % only tolerates format-level drift. The driver compares
  runs *across seeds*; ``driver_bound`` covers that spread.
"""

from __future__ import annotations

from dataclasses import dataclass

from perfbench.spans import CORE_LAYERS


@dataclass(frozen=True)
class EndToEnd:
    name: str
    clock: str  # "host" or "sim"
    unit: str
    better: str  # "lower" or "higher"
    #: Share of the base by which the metric may worsen before it is a
    #: regression, comparing runs of one seed.
    bound: float
    driver: bool = True
    #: The bound BENCHMARK.json carries (runs of different seeds); the
    #: same-seed bound when None.
    driver_bound: float | None = None
    note: str = ""

    @property
    def contract_bound(self) -> float:
        return self.bound if self.driver_bound is None else self.driver_bound


E2E: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "host", "s", "lower", 0.15, driver_bound=0.25,
             note="imports, construction, load, warm-up (fleet: imports + config); "
                  "median of the repeats"),
    EndToEnd("host_us_per_op", "host", "us", "lower", 0.10, driver_bound=0.25,
             note="wall time of the measured region / measured ops; quiet-host estimate"),
    EndToEnd("host_cpu_us_per_op", "host", "us", "lower", 0.07, driver_bound=0.25,
             note="process_time of the measured region (self + children for fleet) / ops; "
                  "quiet-host estimate"),
    EndToEnd("host_peak_rss_mb", "host", "MB", "lower", 0.05,
             note="ru_maxrss of the workload process (max over children for fleet); "
                  "median of the repeats"),
    EndToEnd("sim_throughput_kops", "sim", "kops", "higher", 0.01, driver_bound=0.15),
    EndToEnd("sim_read_mean_usec", "sim", "sim_us", "lower", 0.01, driver_bound=0.15,
             note="mean point-read latency; the one read-latency figure that varies "
                  "smoothly with the seed"),
    EndToEnd("sim_read_p50_usec", "sim", "sim_us", "lower", 0.01, driver=False),
    EndToEnd("sim_read_p99_usec", "sim", "sim_us", "lower", 0.01, driver=False),
    EndToEnd("sim_update_p99_usec", "sim", "sim_us", "lower", 0.01, driver=False),
    EndToEnd("sim_scan_p99_usec", "sim", "sim_us", "lower", 0.01, driver=False,
             note="only where >= 1000 scans were measured"),
    EndToEnd("sim_write_amp", "sim", "ratio", "lower", 0.01, driver_bound=0.10,
             note="(flush + compaction + WAL bytes) / user bytes, as RunResult reports it"),
    EndToEnd("sim_slow_tier_write_amp", "sim", "ratio", "lower", 0.01, driver_bound=0.25,
             note="device bytes written on the slowest tier (QLC) / user bytes"),
    EndToEnd("sim_space_amp", "sim", "ratio", "lower", 0.01, driver=False,
             note="db.total_data_bytes() / live user bytes from the oracle; "
                  "not observable from outside run_fleet"),
    EndToEnd("failed_ops_frac", "host", "fraction", "lower", 0.0, driver=False,
             note="(ops that raised + verification mismatches) / (measured + verification ops)"),
    EndToEnd("ops_measured", "host", "ops", "higher", 0.0, driver=False,
             note="measured ops per repeat (fleet: run-phase ops; its region also loads)"),
)

E2E_BY_NAME = {metric.name: metric for metric in E2E}
SIM_NAMES = tuple(metric.name for metric in E2E if metric.clock == "sim")


def _layer_pairs():
    for layer in CORE_LAYERS:
        yield f"{layer}.calls_per_op", "1/op", "lower"
        yield f"{layer}.self_us_per_op", "us", "lower"


#: (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *_layer_pairs(),
    ("residual.self_us_per_op", "us", "lower"),
    ("workloads.batches", "count", "lower"),
    ("lsm.db.read_calls", "count", "higher"),
    ("lsm.db.write_calls", "count", "higher"),
    ("lsm.db.scan_calls", "count", "higher"),
    ("lsm.db.tables_probed_per_read", "1/op", "lower"),
    ("lsm.db.reads_memtable_frac", "fraction", "higher"),
    ("lsm.db.reads_fast_tier_frac", "fraction", "higher"),
    ("lsm.memtable.hit_frac", "fraction", "higher"),
    ("lsm.version.candidates_per_call", "1/op", "lower"),
    ("lsm.sstable_builder.files_built", "count", "lower"),
    ("lsm.sstable_builder.bytes_built", "B", "lower"),
    ("lsm.bloom.probes_per_op", "1/op", "lower"),
    ("lsm.bloom.negative_frac", "fraction", "higher"),
    ("lsm.bloom.false_positive_frac", "fraction", "lower"),
    ("lsm.bloom.build_us_per_key", "us", "lower"),
    ("lsm.block.searches_per_op", "1/op", "lower"),
    ("lsm.block.blocks_decoded_per_op", "1/op", "lower"),
    ("lsm.block_cache.hit_rate", "fraction", "higher"),
    ("lsm.block_cache.data_hit_rate", "fraction", "higher"),
    ("lsm.block_cache.evictions_per_op", "1/op", "lower"),
    ("lsm.wal.appends_per_op", "1/op", "lower"),
    ("lsm.wal.bytes_per_user_byte", "ratio", "lower"),
    ("lsm.flush.count", "count", "lower"),
    ("lsm.flush.us_per_flush", "us", "lower"),
    ("lsm.compaction.jobs", "count", "lower"),
    ("lsm.compaction.total_us_per_op", "us", "lower"),
    ("lsm.compaction.us_per_record_in", "us", "lower"),
    ("lsm.compaction.records_in_per_op", "1/op", "lower"),
    ("lsm.compaction.bytes_written_per_user_byte", "ratio", "lower"),
    ("lsm.compaction.trivial_moves", "count", "higher"),
    ("lsm.compaction.stall_ops_frac", "fraction", "lower"),
    ("lsm.compaction.stall_p99_ms", "ms", "lower"),
    ("core.tracker.evictions_per_read", "1/op", "lower"),
    ("core.tracker.hand_steps_per_read", "1/op", "lower"),
    ("core.tracker.occupancy_frac", "fraction", "higher"),
    ("core.placer.route_calls_per_op", "1/op", "lower"),
    ("core.placer.pinned_frac", "fraction", "higher"),
    ("core.placer.pulled_up_per_op", "1/op", "higher"),
    ("storage.device.read_bytes_per_op", "B/op", "lower"),
    ("storage.device.write_bytes_per_op", "B/op", "lower"),
    ("storage.device.busy_frac_max", "fraction", "lower"),
    ("storage.device.queue_penalty_p99_usec", "sim_us", "lower"),
    ("obs.timeline.samples", "count", "lower"),
    ("fleet.self_us_per_op", "us", "lower"),
    ("fleet.runner.shard_run_s_sum", "s", "lower"),
    ("fleet.router.split_ms_per_shard", "ms", "lower"),
    ("fleet.workload.init_ms_per_shard", "ms", "lower"),
    ("bench.codec.encode_ms_per_shard", "ms", "lower"),
    ("bench.codec.decode_ms_per_shard", "ms", "lower"),
    ("bench.codec.bytes_per_shard", "B", "lower"),
    ("fleet.merge.add_ms_per_shard", "ms", "lower"),
    ("fleet.merge.finish_ms", "ms", "lower"),
    ("fleet.pool.contention_ms", "ms", "lower"),
    ("fleet.fanout.parallel_efficiency", "fraction", "higher"),
    ("sim.read_p50_usec", "sim_us", "lower"),
    ("sim.read_p99_usec", "sim_us", "lower"),
    ("sim.update_p99_usec", "sim_us", "lower"),
    ("sim.scan_p99_usec", "sim_us", "lower"),
    ("sim.space_amp", "ratio", "lower"),
    ("trace.host_us_per_op", "us", "lower"),
    ("trace.span_overhead_us_per_op", "us", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.unresolved_spans", "count", "lower"),
    ("trace.spans", "count", "lower"),
)

PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}

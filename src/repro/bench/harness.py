"""Experiment harness: build a system, drive a workload, collect metrics.

The runner is *closed-loop with C clients* (the paper uses 8 concurrent
YCSB clients): after each operation completes with simulated latency L,
the global clock advances by L / C — the standard approximation that C
independent clients keep the server continuously busy. Throughput is
operations divided by simulated elapsed time; background compaction and
migration I/O indirectly slow operations through the device-backlog
queueing penalty, exactly as contention does on real hardware.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import asdict, dataclass, field, fields
from functools import partial

from repro.baselines.mutant import MutantDB, MutantOptions
from repro.baselines.rocksdb import RocksDBLike
from repro.common.clock import SimClock
from repro.common.stats import LatencyRecorder, LatencySummary, throughput_kops
from repro.core.prismdb import PrismDB, PrismOptions
from repro.errors import ConfigError
from repro.lsm.block_cache import BlockType
from repro.lsm.db import LsmDB
from repro.lsm.layout import build_layout
from repro.lsm.options import options_for_db_size
from repro.obs.attribution import LatencyAttribution
from repro.obs.metrics import Histogram
from repro.obs.timeline import TimelineSampler, check_interval_ms
from repro.storage.endurance import device_lifetime_seconds
from repro.workloads.ycsb import OP_READ, OP_SCAN, YCSBConfig, YCSBWorkload

#: Systems the experiments compare.
SYSTEM_NAMES = ("rocksdb", "prismdb", "mutant")


@dataclass
class SystemConfig:
    """Everything needed to instantiate one system under test."""

    system: str = "rocksdb"
    layout_code: str = "NNNTQ"
    #: Block cache budget as a fraction of the data set (the paper uses a
    #: 1:10 DRAM:storage ratio with 20 % of DRAM for the block cache, but
    #: also leans on the OS page cache; this fraction stands in for both).
    cache_fraction: float = 0.10
    #: Share of the DRAM cache budget given to an object-granularity row
    #: cache instead of the block cache (the §3.3 granularity extension).
    row_cache_share: float = 0.0
    #: PrismDB pinning threshold override (Fig. 14 sweeps this).
    pinning_threshold: float = 0.10
    #: Extra PrismOptions fields for ablation variants.
    prism_overrides: dict = field(default_factory=dict)
    #: Compaction shape (see repro.lsm.options.COMPACTION_SHAPES / docs/COMPACTION.md).
    #: The default reproduces the paper's configuration exactly, so the
    #: baselines' determinism tests are unaffected.
    compaction_shape: str = "leveling"
    #: WAL group-commit factor (1 = sync every append, the paper's
    #: configuration). The fleet router raises it to model router-side
    #: batched WAL (see docs/FLEET.md).
    wal_sync_every: int = 1
    clients: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.system not in SYSTEM_NAMES:
            raise ConfigError(f"unknown system {self.system!r}")
        if self.clients < 1:
            raise ConfigError("clients must be >= 1")
        if self.cache_fraction < 0:
            raise ConfigError(f"cache_fraction must be non-negative: {self.cache_fraction}")
        if not 0.0 <= self.row_cache_share <= 1.0:
            raise ConfigError(f"row_cache_share out of range: {self.row_cache_share}")
        if not 0.0 <= self.pinning_threshold <= 1.0:
            raise ConfigError(f"pinning_threshold must be in [0, 1]: {self.pinning_threshold}")


def check_runner_options(
    *,
    clients: int,
    sample_interval_ms: float | None,
    attribution_sample_every: int | None = None,
) -> None:
    """The :class:`WorkloadRunner` argument rules, checkable before any engine exists."""
    if clients < 1:
        raise ConfigError("clients must be >= 1")
    if sample_interval_ms is not None:
        check_interval_ms(sample_interval_ms)
    if attribution_sample_every is not None and attribution_sample_every < 1:
        raise ConfigError(f"attribution_sample_every must be >= 1: {attribution_sample_every}")


def build_system(config: SystemConfig, workload: YCSBWorkload) -> LsmDB:
    """Instantiate the system under test, sized for the workload."""
    db_bytes = workload.total_data_bytes()
    cache_bytes = int(db_bytes * config.cache_fraction)
    row_bytes = int(cache_bytes * config.row_cache_share)
    options = options_for_db_size(
        db_bytes,
        block_cache_bytes=cache_bytes - row_bytes,
        row_cache_bytes=row_bytes,
        seed=config.seed,
        compaction_shape=config.compaction_shape,
        wal_sync_every=config.wal_sync_every,
    )
    clock = SimClock()
    layout = build_layout(config.layout_code, options, clock)
    if config.system == "rocksdb":
        return RocksDBLike(layout, options, clock=clock)
    if config.system == "mutant":
        return MutantDB(layout, options, MutantOptions(), clock=clock)
    prism = PrismOptions.for_keyspace(
        workload.config.record_count,
        pinning_threshold=config.pinning_threshold,
        **config.prism_overrides,
    )
    return PrismDB(layout, options, prism, clock=clock)


@dataclass
class RunResult:
    """Metrics from one workload run against one system."""

    label: str
    system: str
    layout_code: str
    operations: int
    elapsed_usec: float
    throughput_kops: float
    read_latency: LatencySummary
    update_latency: LatencySummary
    #: Range scans get their own population: folding them into
    #: ``read_latency`` skewed the Fig. 10 point-read percentiles on
    #: scan-heavy workloads.
    scan_latency: LatencySummary = field(default_factory=LatencySummary.empty)
    reads_by_source: dict[str, int] = field(default_factory=dict)
    read_latency_by_source: dict[str, LatencySummary] = field(default_factory=dict)
    cache_hit_rate: float = 0.0
    cache_hit_rate_data: float = 0.0
    compactions: int = 0
    compaction_read_bytes: int = 0
    compaction_write_bytes: int = 0
    flush_bytes: int = 0
    wal_bytes: int = 0
    user_write_bytes: int = 0
    write_amplification: float = 0.0
    per_level_write_bytes: dict[int, int] = field(default_factory=dict)
    pinned_records: int = 0
    pulled_up_records: int = 0
    migrations: int = 0
    migration_bytes: int = 0
    device_read_bytes: dict[str, int] = field(default_factory=dict)
    device_write_bytes: dict[str, int] = field(default_factory=dict)
    #: Full-capacity P/E cycles consumed per tier during the whole run.
    device_wear_cycles: dict[str, float] = field(default_factory=dict)
    #: Projected device lifetime in years at the run's observed write
    #: rate (the paper's 3-year provisioning criterion, measured).
    device_lifetime_years: dict[str, float] = field(default_factory=dict)
    storage_cost_dollars: float = 0.0
    #: JSON-safe snapshot of the run's :class:`~repro.obs.MetricsRegistry`
    #: (every counter/gauge/histogram series; see docs/OBSERVABILITY.md).
    metrics: dict = field(default_factory=dict)
    #: JSON-safe :meth:`~repro.obs.TimelineSampler.to_dict` export when
    #: the run sampled a timeline; empty dict otherwise.
    timeline: dict = field(default_factory=dict)
    #: JSON-safe :meth:`~repro.obs.LatencyAttribution.to_dict` export
    #: when the run attributed per-request latency (schema 2); empty
    #: dict otherwise. See docs/OBSERVABILITY.md.
    attribution: dict = field(default_factory=dict)
    #: Fleet provenance block (shard count, router stats, device-pool
    #: contention overlay, per-shard summaries) when this result is a
    #: merged fleet run (see docs/FLEET.md); empty dict
    #: for ordinary single-instance runs, and omitted from the JSON
    #: artifact so pre-fleet artifacts stay byte-identical on re-save.
    fleet: dict = field(default_factory=dict)

    @property
    def total_io_read_bytes(self) -> int:
        return sum(self.device_read_bytes.values())

    @property
    def total_io_write_bytes(self) -> int:
        return sum(self.device_write_bytes.values())

    # ------------------------------------------------------------------
    # Persistence: whole runs as JSON artifacts
    # ------------------------------------------------------------------
    #: Artifact schema version; bump on incompatible layout changes.
    #: Schema 2 added the ``attribution`` block (per-request latency
    #: provenance); :meth:`from_json` reads this schema only.
    SCHEMA = 2

    def to_json(self) -> dict:
        """A strictly JSON-safe dict that round-trips via :meth:`from_json`.

        Keys follow the field order, ``schema`` first. ``inf`` (the
        lifetime-years of a tier that saw no writes) is not valid JSON,
        so it is encoded as the string ``"inf"``; integer dict keys
        (per-level bytes) become strings and are restored on load.
        """
        data = {"schema": self.SCHEMA}
        for f in fields(self):
            value = getattr(self, f.name)
            encode = _ENCODE.get(f.name)
            data[f.name] = value if encode is None else encode(value)
        if not self.fleet:
            del data["fleet"]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "RunResult":
        """Rebuild a :class:`RunResult` from :meth:`to_json` output.

        Raises :class:`ConfigError` on another schema, a payload that is
        not an object, or a missing field (``timeline`` and ``fleet``
        are optional).
        """
        if not isinstance(data, dict):
            raise ConfigError(f"run artifact is a {type(data).__name__}, not an object")
        schema = data.get("schema")
        if schema != cls.SCHEMA:
            raise ConfigError(
                f"unsupported run-artifact schema {schema!r} "
                f"(this build reads schema {cls.SCHEMA})"
            )
        kwargs = {}
        for f in fields(cls):
            if f.name not in data:
                if f.name in _OPTIONAL:
                    continue
                raise ConfigError(f"run artifact is missing field {f.name!r}")
            decode = _DECODE.get(f.name)
            value = data[f.name]
            try:
                kwargs[f.name] = value if decode is None else decode(value)
            except (AttributeError, TypeError, ValueError) as exc:
                raise ConfigError(f"run artifact field {f.name!r} is malformed: {exc}") from exc
        return cls(**kwargs)

    def save(self, path: str) -> None:
        """Write the artifact as JSON (strict: no NaN/Infinity literals)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "RunResult":
        """Read an artifact previously written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def _summary_in(d: dict) -> LatencySummary:
    return LatencySummary(**d)


def _summaries_out(by_source: dict) -> dict:
    return {source: asdict(s) for source, s in by_source.items()}


def _summaries_in(by_source: dict) -> dict:
    return {source: _summary_in(d) for source, d in by_source.items()}


#: The only per-field JSON code: every other field is stored as is.
_ENCODE = {
    "read_latency": asdict,
    "update_latency": asdict,
    "scan_latency": asdict,
    "read_latency_by_source": _summaries_out,
    "per_level_write_bytes": lambda d: {str(level): n for level, n in d.items()},
    "device_lifetime_years": lambda d: {
        tier: "inf" if math.isinf(years) else years for tier, years in d.items()
    },
}
_DECODE = {
    "read_latency": _summary_in,
    "update_latency": _summary_in,
    "scan_latency": _summary_in,
    "read_latency_by_source": _summaries_in,
    "per_level_write_bytes": lambda d: {int(level): n for level, n in d.items()},
    "device_lifetime_years": lambda d: {
        tier: float("inf") if years == "inf" else years for tier, years in d.items()
    },
}
#: Blocks an artifact may leave out; they take the field default.
_OPTIONAL = ("timeline", "fleet")


def _lsm_state_snapshot(db: LsmDB) -> dict:
    """LSM shape at the moment a slow op is captured (JSON-safe)."""
    return {
        "clock_usec": db.clock.now,
        "memtable_bytes": db.memtable_bytes,
        "l0_files": db.l0_file_count,
        "levels": db.level_summary(),
        "backlog_bytes": {
            tier.name: tier.device.backlog_bytes for tier in db.layout.tiers
        },
        "compactions": db.executor.stats.compactions,
    }


class WorkloadRunner:
    """Drives load and run phases against one database instance.

    The runner builds no reference cycle through the engine: once
    :meth:`result` has run, dropping the runner and the engine frees
    the engine by reference counting, without waiting for the cyclic GC.
    """

    def __init__(
        self,
        db: LsmDB,
        *,
        clients: int = 8,
        sample_interval_ms: float | None = None,
        attribution_sample_every: int | None = None,
        slow_op_k: int = 8,
    ) -> None:
        check_runner_options(
            clients=clients,
            sample_interval_ms=sample_interval_ms,
            attribution_sample_every=attribution_sample_every,
        )
        self.db = db
        self.clients = clients
        # Each measured op's latency is recorded once, in run order, in
        # the recorder of its kind. Scans are kept apart from point reads
        # (YCSB-E style workloads would otherwise skew the read
        # percentiles). Per-source summaries, the registry histograms
        # and the timeline's interval percentiles all derive from these.
        self.read_latency = LatencyRecorder()
        self.update_latency = LatencyRecorder()
        self.scan_latency = LatencyRecorder()
        self._latencies = {
            "read": self.read_latency,
            "update": self.update_latency,
            "scan": self.scan_latency,
        }
        # The source that served each measured read ("memtable",
        # "L0".."L4", "miss"), in run order: an index into _sources,
        # the sources in first-seen order.
        self._read_source = array("B")
        self._sources: list[str] = []
        #: Optional time-series telemetry: pass ``sample_interval_ms`` to
        #: record registry deltas every N simulated milliseconds (see
        #: repro.obs.timeline). Off by default — the clock observer and
        #: per-sample registry walk are not free.
        self.sampler: TimelineSampler | None = None
        if sample_interval_ms is not None:
            self.sampler = TimelineSampler(
                db.metrics,
                db.clock,
                interval_ms=sample_interval_ms,
                probes={
                    "memtable.bytes": lambda: db.memtable_bytes,
                    "l0.files": lambda: db.l0_file_count,
                },
                latencies=self._latencies,
            ).attach()
        #: Per-request latency provenance: pass ``attribution_sample_every``
        #: to break every N-th measured op's latency down by
        #: (component, tier) and retain the ``slow_op_k`` slowest ops
        #: with full span trees + an LSM state snapshot. Off by default;
        #: when on, :meth:`run` wraps its three engine callables once.
        self.attribution: LatencyAttribution | None = None
        if attribution_sample_every is not None:
            self.attribution = LatencyAttribution(
                seed=db.options.seed,
                sample_every=attribution_sample_every,
                slow_k=slow_op_k,
            )
            # A function of the engine alone: a bound method of the
            # runner would tie runner and attribution into a cycle.
            self.attribution.state_fn = partial(_lsm_state_snapshot, db)

    def _reads_by_source(self) -> dict[str, LatencyRecorder]:
        """The measured reads split by serving source, in run order."""
        split = [array("d") for _ in self._sources]
        for latency, index in zip(self.read_latency.samples, self._read_source):
            split[index].append(latency)
        return {
            source: LatencyRecorder(samples) for source, samples in zip(self._sources, split)
        }

    def _mark_phase(self, phase: str) -> None:
        if self.sampler is not None:
            self.sampler.mark_phase(phase)

    # ------------------------------------------------------------------
    # Phase drivers
    #
    # All three phases consume RequestBatch chunks (parallel arrays of
    # int op codes / keys / values / scan lengths). Each batch is walked
    # as maximal *groups* of consecutive same-opcode requests, and every
    # group dispatches through the engine's lanes (``db.read_lane()`` /
    # ``db.write_lane()``, fetched once per phase — see
    # docs/PERFORMANCE.md). ``clock.advance(latency / clients)`` runs
    # after every operation.
    # ------------------------------------------------------------------
    def load(self, workload: YCSBWorkload) -> float:
        """Load phase; returns simulated elapsed usec."""
        db = self.db
        start = db.clock.now
        self._mark_phase("load")
        commit = db.write_lane()
        advance = db.clock.advance
        clients = self.clients
        for batch in workload.load_batches():
            for key, value in zip(batch.keys, batch.values):
                advance(commit(key, value).latency_usec / clients)
        db.flush()
        return db.clock.now - start

    def warmup(self, workload: YCSBWorkload) -> float:
        """Unmeasured warm-up traffic; returns simulated elapsed usec."""
        db = self.db
        start = db.clock.now
        self._mark_phase("warmup")
        lookup = db.read_lane()
        commit = db.write_lane()
        scan = db.scan
        advance = db.clock.advance
        clients = self.clients
        for batch in workload.warmup_batches():
            kinds = batch.kinds
            keys = batch.keys
            values = batch.values
            lengths = batch.scan_lengths
            n = len(kinds)
            i = 0
            while i < n:
                kind = kinds[i]
                j = i + 1
                while j < n and kinds[j] == kind:
                    j += 1
                if kind == OP_READ:
                    for k in range(i, j):
                        advance(lookup(keys[k]).latency_usec / clients)
                elif kind != OP_SCAN:
                    for k in range(i, j):
                        advance(commit(keys[k], values[k]).latency_usec / clients)
                else:
                    for k in range(i, j):
                        advance(scan(keys[k], lengths[k]).latency_usec / clients)
                i = j
        return db.clock.now - start

    def run(self, workload: YCSBWorkload) -> float:
        """Transaction phase; returns simulated elapsed usec."""
        db = self.db
        start = db.clock.now
        self._mark_phase("run")
        lookup = db.read_lane()
        commit = db.write_lane()
        scan = db.scan
        if self.attribution is not None:
            lookup = self.attribution.attributed("read", lookup)
            commit = self.attribution.attributed("update", commit)
            scan = self.attribution.attributed("scan", scan)
        advance = db.clock.advance
        clients = self.clients
        record_read = self.read_latency.record
        record_update = self.update_latency.record
        record_scan = self.scan_latency.record
        append_source = self._read_source.append
        sources = self._sources
        source_index = {source: i for i, source in enumerate(sources)}
        for batch in workload.run_batches():
            kinds = batch.kinds
            keys = batch.keys
            values = batch.values
            lengths = batch.scan_lengths
            n = len(kinds)
            i = 0
            while i < n:
                kind = kinds[i]
                j = i + 1
                while j < n and kinds[j] == kind:
                    j += 1
                if kind == OP_READ:
                    for k in range(i, j):
                        result = lookup(keys[k])
                        latency = result.latency_usec
                        record_read(latency)
                        source = result.served_by
                        index = source_index.get(source)
                        if index is None:
                            index = source_index[source] = len(sources)
                            sources.append(source)
                        append_source(index)
                        advance(latency / clients)
                elif kind != OP_SCAN:
                    for k in range(i, j):
                        latency = commit(keys[k], values[k]).latency_usec
                        record_update(latency)
                        advance(latency / clients)
                else:
                    for k in range(i, j):
                        latency = scan(keys[k], lengths[k]).latency_usec
                        record_scan(latency)
                        advance(latency / clients)
                i = j
        return db.clock.now - start

    def result(self, label: str, config: SystemConfig, elapsed_usec: float) -> RunResult:
        """Snapshot all metrics after :meth:`run`; ends timeline sampling."""
        db = self.db
        if self.sampler is not None:
            # The clock holds the sampler and its probes hold the engine:
            # left attached, that cycle keeps the whole engine alive.
            self.sampler.detach()
        operations = sum(len(recorder) for recorder in self._latencies.values())
        by_source = self._reads_by_source()
        # The registry histograms catch up on the samples they have not
        # seen, in record order: counts, sums and extremes are the ones
        # observing each op as it finished would have given.
        metrics = db.metrics
        for op, recorder in self._latencies.items():
            _observe_new(metrics.histogram("op.latency_usec", op=op), recorder)
        for source, recorder in by_source.items():
            _observe_new(metrics.histogram("read.latency_usec", source=source), recorder)
        compaction = db.executor.stats
        device_reads: dict[str, int] = {}
        device_writes: dict[str, int] = {}
        device_wear: dict[str, float] = {}
        device_life: dict[str, float] = {}
        total_time_sec = max(db.clock.now / 1_000_000.0, 1e-9)
        for tier in db.layout.tiers:
            device_reads[tier.name] = tier.device.stats.bytes_read
            device_writes[tier.name] = tier.device.stats.bytes_written
            device_wear[tier.name] = tier.device.wear_cycles
            write_rate = tier.device.stats.bytes_written / total_time_sec
            if write_rate > 0:
                seconds_of_life = device_lifetime_seconds(
                    tier.spec, tier.capacity_bytes, write_rate
                )
                device_life[tier.name] = seconds_of_life / (365 * 86_400)
            else:
                device_life[tier.name] = float("inf")
        migrations = getattr(db, "mutant_stats", None)
        return RunResult(
            label=label,
            system=config.system,
            layout_code=config.layout_code,
            operations=operations,
            elapsed_usec=elapsed_usec,
            throughput_kops=throughput_kops(operations, elapsed_usec),
            read_latency=self.read_latency.summary(),
            update_latency=self.update_latency.summary(),
            scan_latency=self.scan_latency.summary(),
            reads_by_source=db.stats.reads_by_source.as_dict(),
            read_latency_by_source={
                source: recorder.summary() for source, recorder in by_source.items()
            },
            cache_hit_rate=db.cache.stats.hit_rate(),
            cache_hit_rate_data=db.cache.stats.hit_rate(BlockType.DATA),
            compactions=compaction.compactions,
            compaction_read_bytes=compaction.bytes_read,
            compaction_write_bytes=compaction.bytes_written,
            flush_bytes=db.stats.flush_bytes,
            wal_bytes=db.wal.total_bytes,
            user_write_bytes=db.stats.user_write_bytes,
            write_amplification=db.stats.write_amplification(
                compaction.bytes_written, db.wal.total_bytes
            ),
            per_level_write_bytes=dict(compaction.per_level_write_bytes),
            pinned_records=compaction.records.get("pinned", 0),
            pulled_up_records=compaction.records.get("pulled_up", 0),
            migrations=migrations.migrations if migrations else 0,
            migration_bytes=migrations.migration_bytes if migrations else 0,
            device_read_bytes=device_reads,
            device_write_bytes=device_writes,
            device_wear_cycles=device_wear,
            device_lifetime_years=device_life,
            storage_cost_dollars=db.layout.total_cost_dollars(),
            metrics=metrics.snapshot(),
            timeline=self.sampler.to_dict() if self.sampler is not None else {},
            attribution=(
                self.attribution.to_dict() if self.attribution is not None else {}
            ),
        )


def _observe_new(hist: Histogram, recorder: LatencyRecorder) -> None:
    for latency in recorder.samples[hist.count:]:
        hist.observe(latency)


def run_experiment(
    config: SystemConfig,
    workload_config: YCSBConfig,
    *,
    label: str | None = None,
    sample_interval_ms: float | None = None,
    attribution_sample_every: int | None = None,
    slow_op_k: int = 8,
) -> RunResult:
    """Convenience wrapper: build, load, run, snapshot.

    ``sample_interval_ms`` turns on timeline sampling for the whole run
    (load, warmup and measured phases, attributed via phase markers).
    ``attribution_sample_every`` turns on per-request latency
    attribution for the measured phase (1 = every op).
    """
    workload = YCSBWorkload(workload_config)
    db = build_system(config, workload)
    runner = WorkloadRunner(
        db,
        clients=config.clients,
        sample_interval_ms=sample_interval_ms,
        attribution_sample_every=attribution_sample_every,
        slow_op_k=slow_op_k,
    )
    runner.load(workload)
    if workload_config.warmup_operations > 0:
        runner.warmup(workload)
    elapsed = runner.run(workload)
    return runner.result(label or f"{config.system}/{config.layout_code}", config, elapsed)

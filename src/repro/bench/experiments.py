"""One function per paper table/figure.

Each experiment function returns ``(headers, rows)`` ready for
:func:`repro.bench.reporting.format_experiment`, regenerating the same
rows/series the paper reports. Heavy simulation runs are memoized on the
shared :class:`ExperimentRunner` so figures that share a configuration
(e.g. Fig. 9a, Fig. 10 and Table 4 all use the 95/5 zipf-0.99
heterogeneous run) reuse one simulation.

The measurement protocol for engine experiments is load -> *aging* (an
unmeasured write-heavy phase that advances the LSM to the steady state a
50M-request run reaches) -> *settle* (unmeasured traffic at the target
mix) -> measured run. All systems get byte-identical traffic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from repro.analysis.cost_model import (
    enumerate_configs,
    pareto_frontier,
    table3_costs,
)
from repro.bench.harness import (
    RunResult,
    SystemConfig,
    WorkloadRunner,
    build_system,
    run_experiment,
)
from repro.bench.reporting import fmt, pct
from repro.core.mapper import ClockDistributionMapper
from repro.core.tracker import ClockTracker
from repro.storage.device import (
    NVM_SPEC,
    QLC_SPEC,
    TLC_SPEC,
    fio_large_write_latency,
    fio_random_read_latency,
)
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload
from repro.workloads.zipfian import ScrambledZipfianGenerator
from repro.common.rng import make_rng

#: Layouts compared in Fig. 2a / Fig. 9a / Table 4.
LAYOUTS = {"NVM": "NNNNN", "TLC": "TTTTT", "QLC": "QQQQQ", "Het": "NNNTQ"}


@dataclass(frozen=True)
class ExperimentScale:
    """Workload sizing for experiments (shrunk from the paper's scale)."""

    record_count: int = 60_000
    operation_count: int = 100_000
    aging_operations: int = 100_000
    settle_operations: int = 60_000
    value_bytes: int = 100
    cache_fraction: float = 0.05
    clients: int = 8
    seed: int = 42

    @staticmethod
    def from_env() -> "ExperimentScale":
        """Scale selected by $REPRO_BENCH_SCALE: quick | default | full."""
        name = os.environ.get("REPRO_BENCH_SCALE", "default")
        if name == "quick":
            return ExperimentScale(
                record_count=8_000,
                operation_count=12_000,
                aging_operations=12_000,
                settle_operations=8_000,
            )
        if name == "full":
            return ExperimentScale(
                record_count=100_000,
                operation_count=150_000,
                aging_operations=150_000,
                settle_operations=100_000,
            )
        return ExperimentScale()


class ExperimentRunner:
    """Builds, ages and measures systems, memoizing by configuration."""

    def __init__(self, scale: ExperimentScale | None = None) -> None:
        self.scale = scale or ExperimentScale.from_env()
        self._results: dict[tuple, RunResult] = {}

    def workload_config(self, *, read_pct: int = 95, distribution: str = "zipfian", zipf_theta: float = 0.99) -> YCSBConfig:
        scale = self.scale
        return YCSBConfig(
            record_count=scale.record_count,
            operation_count=scale.operation_count,
            read_proportion=read_pct / 100.0,
            update_proportion=1.0 - read_pct / 100.0,
            distribution=distribution,
            zipf_theta=zipf_theta,
            value_bytes=scale.value_bytes,
            seed=scale.seed,
        )

    def run(
        self,
        system: str,
        layout: str = "NNNTQ",
        *,
        read_pct: int = 95,
        distribution: str = "zipfian",
        zipf_theta: float = 0.99,
        **settings,
    ) -> RunResult:
        """Run one configuration (memoized).

        ``settings`` are :class:`SystemConfig` fields over the scale's
        cache fraction, clients and seed, e.g. ``cache_fraction=0.0`` or
        ``prism_overrides={"up_compaction": False}``. Runs are memoized on
        the workload parameters and every field of the resulting config,
        so an explicit default finds the same run.
        """
        config = SystemConfig(
            system=system,
            layout_code=layout,
            **{
                "cache_fraction": self.scale.cache_fraction,
                "clients": self.scale.clients,
                "seed": self.scale.seed,
                **settings,
            },
        )
        key = (read_pct, distribution, zipf_theta) + tuple(
            tuple(sorted(value.items())) if isinstance(value, dict) else value
            for value in (getattr(config, f.name) for f in fields(config))
        )
        cached = self._results.get(key)
        if cached is not None:
            return cached
        base = self.workload_config(read_pct=read_pct, distribution=distribution, zipf_theta=zipf_theta)
        aging = replace(
            base,
            read_proportion=0.5,
            update_proportion=0.5,
            warmup_operations=self.scale.aging_operations,
        )
        settle = replace(base, warmup_operations=self.scale.settle_operations)
        workload = YCSBWorkload(base)
        db = build_system(config, workload)
        runner = WorkloadRunner(db, clients=config.clients)
        runner.load(workload)
        if self.scale.aging_operations:
            runner.warmup(YCSBWorkload(aging))
        if self.scale.settle_operations:
            runner.warmup(YCSBWorkload(settle))
        elapsed = runner.run(workload)
        result = runner.result(f"{system}/{layout}", config, elapsed)
        self._results[key] = result
        return result


#: Process-wide runner shared by the benchmark suite so figures reuse runs.
_shared_runner: ExperimentRunner | None = None


def shared_runner() -> ExperimentRunner:
    global _shared_runner
    if _shared_runner is None:
        _shared_runner = ExperimentRunner()
    return _shared_runner


# ----------------------------------------------------------------------
# Table 1 — device characteristics
# ----------------------------------------------------------------------
def table1_devices():
    headers = ["", "NVM", "TLC", "QLC"]
    specs = (NVM_SPEC, TLC_SPEC, QLC_SPEC)
    rows = [
        ["Lifetime (P/E cycles)"] + [spec.pe_cycles for spec in specs],
        ["Cost ($/GB)"] + [f"${spec.cost_per_gb:.2f}" for spec in specs],
        ["Avg Read Latency (4KB, us)"] + [fmt(fio_random_read_latency(spec)) for spec in specs],
        ["Avg Write Latency (64MB, us)"] + [fmt(fio_large_write_latency(spec)) for spec in specs],
    ]
    return headers, rows


# ----------------------------------------------------------------------
# Fig. 2a — RocksDB throughput on homogeneous vs heterogeneous storage
# ----------------------------------------------------------------------
def fig2a_rocksdb_storage(runner: ExperimentRunner | None = None):
    runner = runner or shared_runner()
    headers = ["config", "throughput (kops/s)", "avg read (us)"]
    rows = []
    for name, code in LAYOUTS.items():
        result = runner.run("rocksdb", code)
        rows.append([name, fmt(result.throughput_kops), fmt(result.read_latency.mean)])
    return headers, rows


# ----------------------------------------------------------------------
# Fig. 3 — distribution of writes and reads across levels
# ----------------------------------------------------------------------
def fig3_level_distribution(runner: ExperimentRunner | None = None):
    runner = runner or shared_runner()
    result = runner.run("rocksdb", "NNNTQ")
    total_writes = sum(result.per_level_write_bytes.values()) or 1
    total_reads = sum(result.reads_by_source.values()) or 1
    headers = ["level", "write bytes %", "point reads %"]
    rows = []
    for level in range(5):
        writes = result.per_level_write_bytes.get(level, 0) / total_writes
        reads = result.reads_by_source.get(f"L{level}", 0) / total_reads
        rows.append([f"L{level}", pct(writes), pct(reads)])
    rows.append(["memtable", "-", pct(result.reads_by_source.get("memtable", 0) / total_reads)])
    return headers, rows


# ----------------------------------------------------------------------
# Table 2 — point reads across levels, block cache disabled
# ----------------------------------------------------------------------
def table2_read_levels(runner: ExperimentRunner | None = None):
    runner = runner or shared_runner()
    result = runner.run("rocksdb", "NNNTQ", cache_fraction=0.0)
    total = sum(result.reads_by_source.values()) or 1
    headers = ["Memtable", "L0", "L1", "L2", "L3", "L4"]
    row = [pct(result.reads_by_source.get("memtable", 0) / total)]
    for level in range(5):
        row.append(pct(result.reads_by_source.get(f"L{level}", 0) / total))
    return headers, [row]


# ----------------------------------------------------------------------
# Fig. 4 — cost vs latency of all 3^5 configurations
# ----------------------------------------------------------------------
def fig4_cost_latency():
    evaluations = enumerate_configs()
    frontier_codes = {e.code for e in pareto_frontier(evaluations)}
    headers = ["config", "avg read latency (us)", "cost (cents/GB)", "pareto", "kind"]
    rows = []
    for e in sorted(evaluations, key=lambda e: e.avg_read_latency_usec):
        kind = "homogeneous" if e.is_homogeneous else ("default" if e.code == "NNNTQ" else "")
        rows.append(
            [e.code, fmt(e.avg_read_latency_usec), fmt(e.cost_cents_per_gb), "*" if e.code in frontier_codes else "", kind]
        )
    return headers, rows


# ----------------------------------------------------------------------
# Table 3 — storage cost of the four named configurations
# ----------------------------------------------------------------------
def table3_storage_costs():
    costs = table3_costs()
    headers = ["Configuration"] + list(costs)
    rows = [["Storage Cost"] + [f"${cost:.0f}" for cost in costs.values()]]
    return headers, rows


# ----------------------------------------------------------------------
# Fig. 6 — CLOCK value distribution convergence
# ----------------------------------------------------------------------
def fig6_clock_distribution(n_keys: int = 20_000, snapshots: tuple[int, ...] = (1_000, 5_000, 20_000, 60_000, 120_000)):
    """Stream zipf-0.99 reads through a tracker; snapshot the histogram."""
    mapper = ClockDistributionMapper()
    tracker = ClockTracker(max(1, n_keys // 10), mapper)
    rng = make_rng(7, "fig6")
    generator = ScrambledZipfianGenerator(n_keys, 0.99, rng)
    headers = ["reads", "clock0", "clock1", "clock2", "clock3", "tracker_full"]
    rows = []
    reads = 0
    for target in sorted(snapshots):
        while reads < target:
            index = generator.next_index()
            tracker.on_read(f"user{index:012d}".encode(), version=1)
            tracker.run_evictions()
            reads += 1
        fractions = mapper.fractions()
        rows.append([reads] + [pct(f) for f in fractions] + ["yes" if tracker.is_full else "no"])
    return headers, rows


# ----------------------------------------------------------------------
# Fig. 9a — throughput of the three systems across storage configs
# ----------------------------------------------------------------------
def fig9a_throughput(runner: ExperimentRunner | None = None):
    runner = runner or shared_runner()
    headers = ["config", "RocksDB", "Mutant", "PrismDB"]
    rows = []
    for name, code in LAYOUTS.items():
        row = [name]
        for system in ("rocksdb", "mutant", "prismdb"):
            if system == "mutant" and name != "Het":
                row.append("n/a")  # Mutant is only meaningful across tiers
                continue
            row.append(fmt(runner.run(system, code).throughput_kops))
        rows.append(row)
    return headers, rows


# ----------------------------------------------------------------------
# Fig. 9b — throughput vs read/update mix on the heterogeneous config
# ----------------------------------------------------------------------
MIX_READ_PCTS = (50, 80, 95, 100)


def fig9b_throughput_mixes(runner: ExperimentRunner | None = None):
    runner = runner or shared_runner()
    headers = ["read %", "RocksDB", "Mutant", "PrismDB"]
    rows = []
    for read_pct in MIX_READ_PCTS:
        row = [read_pct]
        for system in ("rocksdb", "mutant", "prismdb"):
            row.append(fmt(runner.run(system, "NNNTQ", read_pct=read_pct).throughput_kops))
        rows.append(row)
    return headers, rows


# ----------------------------------------------------------------------
# Fig. 10a/b — read and update latency, avg/p50/p95/p99 (95/5, Het)
# ----------------------------------------------------------------------
def fig10ab_latencies(runner: ExperimentRunner | None = None):
    runner = runner or shared_runner()
    headers = ["system", "read avg", "read p50", "read p95", "read p99",
               "update avg", "update p50", "update p95", "update p99"]
    rows = []
    for system in ("rocksdb", "mutant", "prismdb"):
        result = runner.run(system, "NNNTQ")
        read, update = result.read_latency, result.update_latency
        rows.append(
            [system, fmt(read.mean), fmt(read.p50), fmt(read.p95), fmt(read.p99),
             fmt(update.mean), fmt(update.p50), fmt(update.p95), fmt(update.p99)]
        )
    return headers, rows


# ----------------------------------------------------------------------
# Fig. 10c/d — average latencies vs read/update mix
# ----------------------------------------------------------------------
def fig10cd_latency_mixes(runner: ExperimentRunner | None = None):
    runner = runner or shared_runner()
    headers = ["read %", "RocksDB read", "Mutant read", "PrismDB read",
               "RocksDB update", "Mutant update", "PrismDB update"]
    rows = []
    for read_pct in MIX_READ_PCTS:
        row = [read_pct]
        results = [runner.run(system, "NNNTQ", read_pct=read_pct) for system in ("rocksdb", "mutant", "prismdb")]
        row.extend(fmt(r.read_latency.mean) for r in results)
        row.extend(fmt(r.update_latency.mean) if r.update_latency.count else "n/a" for r in results)
        rows.append(row)
    return headers, rows


# ----------------------------------------------------------------------
# Fig. 11 — performance across request distributions
# ----------------------------------------------------------------------
DISTRIBUTIONS = (
    ("z0.6", "zipfian", 0.6),
    ("z0.8", "zipfian", 0.8),
    ("z0.99", "zipfian", 0.99),
    ("z1.2", "zipfian", 1.2),
    ("z1.4", "zipfian", 1.4),
    ("latest", "latest", 0.99),
)


def fig11_distributions(runner: ExperimentRunner | None = None):
    runner = runner or shared_runner()
    headers = ["distribution", "RocksDB kops", "PrismDB kops", "RocksDB p99 rd", "PrismDB p99 rd"]
    rows = []
    for label, distribution, theta in DISTRIBUTIONS:
        rocks = runner.run("rocksdb", "NNNTQ", distribution=distribution, zipf_theta=theta)
        prism = runner.run("prismdb", "NNNTQ", distribution=distribution, zipf_theta=theta)
        rows.append(
            [label, fmt(rocks.throughput_kops), fmt(prism.throughput_kops),
             fmt(rocks.read_latency.p99), fmt(prism.read_latency.p99)]
        )
    return headers, rows


# ----------------------------------------------------------------------
# Table 4 — DRAM (block cache) hit rate improvement
# ----------------------------------------------------------------------
def table4_hit_rates(runner: ExperimentRunner | None = None):
    runner = runner or shared_runner()
    headers = ["Config", "RocksDB", "Mutant", "PrismDB", "Improvement", "Data Block Improvement"]
    rows = []
    for name, code in (("Optane", "NNNNN"), ("TLC", "TTTTT"), ("QLC", "QQQQQ"), ("Het", "NNNTQ")):
        rocks = runner.run("rocksdb", code)
        prism = runner.run("prismdb", code)
        mutant_cell = (
            f"{runner.run('mutant', code).cache_hit_rate * 100:.1f}%" if name == "Het" else "n/a"
        )
        improvement = prism.cache_hit_rate / rocks.cache_hit_rate if rocks.cache_hit_rate else 0.0
        data_improvement = (
            prism.cache_hit_rate_data / rocks.cache_hit_rate_data
            if rocks.cache_hit_rate_data
            else 0.0
        )
        rows.append(
            [name, f"{rocks.cache_hit_rate * 100:.1f}%", mutant_cell,
             f"{prism.cache_hit_rate * 100:.1f}%", f"{improvement:.2f}x", f"{data_improvement:.2f}x"]
        )
    return headers, rows


# ----------------------------------------------------------------------
# Fig. 12 — I/O usage and write amplification
# ----------------------------------------------------------------------
def fig12_io_amplification(runner: ExperimentRunner | None = None):
    runner = runner or shared_runner()
    headers = ["system", "compactions", "compaction write MB", "QLC write MB",
               "migration MB", "write amplification", "device read MB", "device write MB"]
    rows = []
    for system in ("rocksdb", "mutant", "prismdb"):
        r = runner.run(system, "NNNTQ")
        qlc_writes = sum(
            n for name, n in r.device_write_bytes.items() if name.startswith("qlc")
        )
        rows.append(
            [system, r.compactions, fmt(r.compaction_write_bytes / 2**20),
             fmt(qlc_writes / 2**20), fmt(r.migration_bytes / 2**20),
             fmt(r.write_amplification, 2), fmt(r.total_io_read_bytes / 2**20),
             fmt(r.total_io_write_bytes / 2**20)]
        )
    return headers, rows


# ----------------------------------------------------------------------
# Fig. 13 — throughput with DRAM caching disabled
# ----------------------------------------------------------------------
def fig13_no_cache(runner: ExperimentRunner | None = None):
    runner = runner or shared_runner()
    headers = ["config", "RocksDB (no cache)", "PrismDB (no cache)"]
    rows = []
    for name, code in (("TLC", "TTTTT"), ("Het", "NNNTQ")):
        rocks = runner.run("rocksdb", code, cache_fraction=0.0)
        prism = runner.run("prismdb", code, cache_fraction=0.0)
        rows.append([name, fmt(rocks.throughput_kops), fmt(prism.throughput_kops)])
    return headers, rows


# ----------------------------------------------------------------------
# Fig. 14 — effect of the pinning threshold
# ----------------------------------------------------------------------
THRESHOLDS = (0.0, 0.02, 0.10, 0.25, 0.50, 0.90)


def fig14_pinning_threshold(runner: ExperimentRunner | None = None):
    runner = runner or shared_runner()
    headers = ["pinning threshold", "PrismDB kops", "compaction write MB"]
    rows = []
    for threshold in THRESHOLDS:
        result = runner.run("prismdb", "NNNTQ", pinning_threshold=threshold)
        rows.append([pct(threshold), fmt(result.throughput_kops), fmt(result.compaction_write_bytes / 2**20)])
    return headers, rows


# ----------------------------------------------------------------------
# Ablations of the design choices DESIGN.md calls out
# ----------------------------------------------------------------------
def ablation_components(runner: ExperimentRunner | None = None):
    """PrismDB with individual mechanisms disabled, vs full and RocksDB."""
    runner = runner or shared_runner()
    variants = [
        ("rocksdb (no read-awareness)", "rocksdb", {}),
        ("prismdb (full)", "prismdb", {}),
        ("prismdb, no up-compaction", "prismdb", {"up_compaction": False}),
        ("prismdb, largest-file selection", "prismdb", {"score_based_selection": False}),
        ("prismdb, pin before tracker full", "prismdb", {"require_full_tracker": False}),
    ]
    headers = ["variant", "kops", "avg read (us)", "compaction write MB", "pins", "pulls"]
    rows = []
    for label, system, overrides in variants:
        result = runner.run(system, "NNNTQ", prism_overrides=overrides)
        rows.append(
            [label, fmt(result.throughput_kops), fmt(result.read_latency.mean),
             fmt(result.compaction_write_bytes / 2**20),
             result.pinned_records, result.pulled_up_records]
        )
    return headers, rows


def ext_latency_breakdown(runner: ExperimentRunner | None = None):
    """Where does each system's read latency come from? (extension)

    Decomposes measured read latency by the source that served the read,
    making the placement mechanism visible: PrismDB shifts read *mass*
    out of the slow-tier rows.
    """
    runner = runner or shared_runner()
    headers = ["source", "RocksDB share", "RocksDB avg us", "PrismDB share", "PrismDB avg us"]
    rocks = runner.run("rocksdb", "NNNTQ")
    prism = runner.run("prismdb", "NNNTQ")
    rows = []
    sources = ["memtable", "L0", "L1", "L2", "L3", "L4", "miss"]
    for source in sources:
        row = [source]
        for result in (rocks, prism):
            total = sum(s.count for s in result.read_latency_by_source.values()) or 1
            summary = result.read_latency_by_source.get(source)
            if summary is None:
                row.extend(["0.0%", "-"])
            else:
                row.extend([pct(summary.count / total), fmt(summary.mean)])
        rows.append(row)
    return headers, rows


def ext_caching_granularity(runner: ExperimentRunner | None = None):
    """§3.3 measured: block-granular vs object-granular DRAM caching.

    Same total DRAM budget, three ways to spend it: RocksDB with a pure
    block cache (the paper's baseline), RocksDB giving half the budget to
    an object-granularity row cache, and PrismDB with a pure block cache
    (hot-cold separation makes blocks hot-dense instead).
    """
    runner = runner or shared_runner()
    variants = [
        ("rocksdb, block cache only", "rocksdb", 0.0),
        ("rocksdb, half row cache", "rocksdb", 0.5),
        ("prismdb, block cache only", "prismdb", 0.0),
    ]
    headers = ["variant", "kops", "avg read (us)", "p99 read (us)"]
    rows = []
    for label, system, row_share in variants:
        result = runner.run(system, "NNNTQ", row_cache_share=row_share)
        rows.append(
            [label, fmt(result.throughput_kops), fmt(result.read_latency.mean),
             fmt(result.read_latency.p99)]
        )
    return headers, rows


def ext_scan_workload(runner: ExperimentRunner | None = None):
    """YCSB-E-style short range scans (extension; not in the paper's eval).

    Scans stress a different path than point reads — merging iterators
    across the memtable and every level — and benefit less from pinning
    (a scan touches cold neighbours regardless). Reported for
    completeness of the YCSB substrate.
    """
    runner = runner or shared_runner()
    headers = ["system", "kops", "avg scan (us)", "p99 scan (us)"]
    rows = []
    scale = runner.scale
    for system in ("rocksdb", "prismdb"):
        config = SystemConfig(
            system=system,
            layout_code="NNNTQ",
            cache_fraction=scale.cache_fraction,
            clients=scale.clients,
            seed=scale.seed,
        )
        base = YCSBConfig(
            record_count=scale.record_count,
            operation_count=max(1, scale.operation_count // 10),  # scans are heavy
            read_proportion=0.0,
            update_proportion=0.05,
            scan_proportion=0.95,
            max_scan_length=20,
            seed=scale.seed,
            warmup_operations=max(1, scale.settle_operations // 10),
        )
        result = run_experiment(config, base, label=system)
        rows.append(
            [system, fmt(result.throughput_kops), fmt(result.scan_latency.mean),
             fmt(result.scan_latency.p99)]
        )
    return headers, rows


def ablation_tracker_params(runner: ExperimentRunner | None = None):
    """CLOCK bits and tracker sizing sensitivity."""
    runner = runner or shared_runner()
    variants = [
        ("2 clock bits (paper)", {}),
        ("1 clock bit (recency only)", {"clock_bits": 1}),
        ("3 clock bits", {"clock_bits": 3}),
    ]
    headers = ["variant", "kops", "avg read (us)", "pins+pulls"]
    rows = []
    for label, overrides in variants:
        result = runner.run("prismdb", "NNNTQ", prism_overrides=overrides)
        rows.append(
            [label, fmt(result.throughput_kops), fmt(result.read_latency.mean),
             result.pinned_records + result.pulled_up_records]
        )
    return headers, rows


def ext_design_space(runner: ExperimentRunner | None = None):
    """Compaction design space: shape x mix, pinned router under each.

    The policy grid of Sarkar et al. (arXiv:2202.04522) applied to
    PrismDB: every compaction shape runs with the read-aware pinned
    router, at a read-heavy and a write-heavy mix, against the leveled
    RocksDB reference. The throughput winner per mix is starred — the
    who-wins-where result the `repro-bench sweep` subcommand explores on
    bigger grids (more mixes and layouts).
    """
    runner = runner or shared_runner()
    from repro.lsm.options import COMPACTION_SHAPES

    grid = [("rocksdb", "leveling")] + [
        ("prismdb", shape) for shape in COMPACTION_SHAPES
    ]
    headers = ["system", "shape", "mix (r/w)", "kops", "p99 read (us)", "WA",
               "pinned"]
    rows = []
    for read_pct in (95, 50):
        results = [
            runner.run(system, "NNNTQ", read_pct=read_pct,
                       compaction_shape=shape)
            for system, shape in grid
        ]
        winner = max(range(len(grid)), key=lambda i: results[i].throughput_kops)
        for i, ((system, shape), result) in enumerate(zip(grid, results)):
            star = "*" if i == winner else ""
            rows.append(
                [system, shape, f"{read_pct}/{100 - read_pct}",
                 f"{fmt(result.throughput_kops)}{star}",
                 fmt(result.read_latency.p99),
                 fmt(result.write_amplification),
                 result.pinned_records]
            )
    return headers, rows

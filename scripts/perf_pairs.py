#!/usr/bin/env python3
"""Interleaved parent/change pairs of one perfbench workload.

    python scripts/perf_pairs.py --parent <ref|path> --workload W --pairs N

Runs ``perfbench/run.py --workload W --seed s --seconds S --trace 0``
alternately in a checkout of the parent (a directory, or a git ref
exported with ``git archive`` into a temporary directory) and in the
working tree — seed ``s`` = 1..N, the side that runs first alternating —
and prints every pair, both medians with quartiles, how many pairs
improved and a verdict (:func:`verdict`): ``lower`` or ``higher`` only
from 10 or more pairs that resolve it, else ``unresolved``. Exits 1 if any ``sim_*`` metric or the failed count differs
between the two sides of a pair: a host-time comparison only means
something between two programs that simulate the same thing.

Both sides run in the same bytecode-cache state: each gets its own
``PYTHONPYCACHEPREFIX`` directory, filled by one discarded smoke-sized
run, and every measured run reads it with ``PYTHONDONTWRITEBYTECODE=1``
(what ``-B`` sets, inherited by the workers). Without that an exported
parent compiles every module on its first run while the working tree
recompiles exactly the files the change edited, which shows up in
``setup_s``.

``--quick`` runs one smoke-sized repeat per side (``python -m
perfbench.worker --quick``; ``run.py`` has no quick flag). ``--stages``
prints, instead of pairs, a per-stage host-time split of the working
tree's load phase (commit path, flush, scheduling, adopted moves,
merges, install), of its compaction jobs in the measured run and of the
run's reads (point reads, scans, data-block misses and hits, fresh and
memoized ``DataBlock.seek``), over one in-process run of the workload,
taken by wrapping the functions from outside (nothing under
``perfbench/`` or ``src/`` is edited). ``--heap`` opens with the fixed
footprint of fresh processes: a bare interpreter's peak RSS, the
benchmark worker's after its imports, the extension modules those load
beyond the bare set and, on ``fleet-mixed``, a pool worker's RSS (started
the way the fan-out starts it, method named) after bootstrap and after
importing ``repro.fleet.runner``. It then
prints, the same way as ``--stages``, the working tree's
``tracemalloc`` top ten allocation sites after the load phase and
after the measured run, with the traced bytes per loaded record beyond
the bytes the tables themselves hold, then what warm-up and run kept
alive beyond new table bytes per measured op and the five sites that
grew most. On ``fleet-mixed`` it instead runs the shards in-process in
order, as one pool worker would, and prints per shard the process's RSS
high-water mark, the cyclic garbage ``gc.collect()`` finds after it, and
the bytes per key of its ownership columns, after the traced bytes the
shared ownership map retains per tenant key.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_METRICS = ("host_us_per_op", "host_cpu_us_per_op", "setup_s", "host_peak_rss_mb")


def run_side(tree: Path, workload: str, seed: int, seconds: float, quick: bool,
             pycache: Path, *, warm: bool = False) -> dict:
    """One benchmark run in ``tree``: {metric: value} plus ``failed``.

    ``pycache`` is the side's bytecode cache; only a ``warm`` run writes it.
    """
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache), PYTHONDONTWRITEBYTECODE="1")
    if warm:  # writes the cache even where the caller's environment forbids it
        del env["PYTHONDONTWRITEBYTECODE"]
    if quick:
        command = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
                   "--seed", str(seed), "--quick"]
        # What perfbench.runner sets for its workers.
        env.update(PYTHONPATH=f"{tree}:{tree / 'src'}", PYTHONHASHSEED="0")
    else:
        command = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: {' '.join(command)} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    if not quick:
        values = {name: row["value"] for name, row in out["metrics"].items()}
        values["failed"] = out["failed"]
        return values
    host, ops = out["host"], out["host"]["ops_measured"]
    values = {name: value for name, value in out["sim"].items() if name.startswith("sim_")}
    values.update(
        host_us_per_op=host["measured_s"] * 1e6 / ops,
        host_cpu_us_per_op=host["cpu_s"] * 1e6 / ops,
        setup_s=host["setup_s"],
        host_peak_rss_mb=host["peak_rss_mb"],
        failed=out["check"]["failed"],
    )
    return values


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.2f}"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:.2f} (q1 {q1:.2f}, q3 {q3:.2f})"


def verdict(before: list[float], after: list[float]) -> str:
    """``lower`` or ``higher`` only where the pairs resolve a change: at
    least 10 pairs, the change on that side in 9 of every 10, and its
    median past the parent's by more than the parent's interquartile
    range; ``unresolved (N pairs)`` otherwise."""
    n = len(before)
    if n >= 10:
        q1, _, q3 = statistics.quantiles(before, n=4, method="inclusive")
        shift = statistics.median(after) - statistics.median(before)
        lower = sum(a < b for b, a in zip(before, after))
        higher = sum(a > b for b, a in zip(before, after))
        if 10 * lower >= 9 * n and -shift > q3 - q1:
            return "lower"
        if 10 * higher >= 9 * n and shift > q3 - q1:
            return "higher"
    return f"unresolved ({n} pairs)"


def run_pairs(parent: Path, pycache: Path, args) -> int:
    trees = {"parent": parent, "change": ROOT}
    for name, tree in trees.items():  # discarded: fills the side's bytecode cache
        run_side(tree, args.workload, args.first_seed, args.seconds, quick=True,
                 pycache=pycache / name, warm=True)
    print("bytecode: per-side PYTHONPYCACHEPREFIX, warmed by one discarded run; "
          "measured runs write none")
    rows: list[tuple[dict, dict]] = []
    mismatches = []
    for index in range(args.pairs):
        seed = args.first_seed + index
        sides = list(trees.items())
        if index % 2:
            sides.reverse()
        result = {
            name: run_side(tree, args.workload, seed, args.seconds, args.quick, pycache / name)
            for name, tree in sides
        }
        before, after = result["parent"], result["change"]
        rows.append((before, after))
        differing = [
            name for name in before
            if (name.startswith("sim_") or name == "failed") and before[name] != after.get(name)
        ]
        if differing:
            mismatches.append((seed, differing))
        delta = (after["host_us_per_op"] / before["host_us_per_op"] - 1.0) * 100.0
        print(
            f"pair {index + 1:2d} seed {seed:2d} first={sides[0][0]:6s} "
            f"host_us_per_op {before['host_us_per_op']:.2f} -> {after['host_us_per_op']:.2f} "
            f"({delta:+.1f}%)  setup_s {before['setup_s']:.2f} -> {after['setup_s']:.2f}  "
            f"rss {before['host_peak_rss_mb']:.1f} -> {after['host_peak_rss_mb']:.1f}  "
            f"sim {'DIFFERS ' + ','.join(differing) if differing else 'identical'}",
            flush=True,
        )
    print(f"\n{args.workload}: {len(rows)} pairs, median (quartiles), parent -> change")
    for metric in HOST_METRICS:
        before = [row[0][metric] for row in rows]
        after = [row[1][metric] for row in rows]
        improved = sum(a < b for b, a in zip(before, after))
        change = (statistics.median(after) / statistics.median(before) - 1.0) * 100.0
        print(f"  {metric:20s} {quartiles(before)} -> {quartiles(after)}  "
              f"median {change:+.1f}%, lower in {improved}/{len(rows)} pairs: "
              f"{verdict(before, after)}")
    if mismatches:
        for seed, names in mismatches:
            print(f"SIMULATED RESULT DIFFERS at seed {seed}: {', '.join(names)}")
        return 1
    print("  every sim_* metric and failed count identical in every pair")
    return 0


# ----------------------------------------------------------------------
# --stages: a per-stage split of compaction host time, wrapped from outside
# ----------------------------------------------------------------------
#: (stage, "module:owner.attr"): the stage's time is the inclusive time of
#: its functions (outermost call only, so the placer's bulk routing and
#: the base loop it falls through to count once). Stages are charged to
#: the enclosing merge or flush; ``finish/write`` is reported minus the
#: bloom build nested inside it, and the merge's own remainder (survivor
#: gathers, stream partition) as ``merge self``.
CONTEXTS = (
    ("merge", "repro.lsm.compaction:CompactionExecutor._merge_spans"),
    ("flush", "repro.lsm.db:LsmDB._flush_memtable"),
)
STAGES = (
    ("scan", "repro.lsm.compaction:CompactionExecutor._scan_inputs"),
    ("sort", "repro.lsm.compaction:merge_order"),
    ("shadow", "repro.lsm.compaction:newest_versions"),
    ("route", "repro.lsm.compaction:MergeRouter.route_up_keys"),
    ("route", "repro.core.placer:ReadAwareRouter.route_up_keys"),
    ("plan", "repro.lsm.compaction:plan_files"),
    ("plan", "repro.lsm.db:plan_files"),
    ("block build", "repro.lsm.sstable:SSTableBuilder.add_encoded_blocks"),
    ("bloom", "repro.lsm.bloom:BloomFilter.add_many"),
    ("finish/write", "repro.lsm.sstable:SSTableBuilder.finish"),
    ("adopt", "repro.lsm.sstable:SSTableBuilder.adopt"),
)


#: The load phase's split (what ``setup_s`` is made of), timed the same
#: way. A merge job whose ``SSTableBuilder.adopt`` call returned a table
#: counts as an adopted move; ``commit path`` is the load minus the flush
#: and compaction calls it makes, and ``install/other`` the compaction
#: calls minus scheduling and the jobs' merge bodies.
LOAD_STAGES = (
    ("flush", "repro.lsm.db:LsmDB._flush_memtable"),
    ("compaction", "repro.lsm.compaction:CompactionExecutor.maybe_compact"),
    ("scheduling", "repro.lsm.compaction:CompactionExecutor.pick_compaction_level"),
    ("scheduling", "repro.lsm.compaction:CompactionExecutor.plan_job"),
    ("job", "repro.lsm.compaction:CompactionExecutor._merge_spans"),
    ("adopt", "repro.lsm.sstable:SSTableBuilder.adopt"),
)


def resolve(target: str):
    """(owner, attribute name) of a ``"module:owner.attr"`` target."""
    import importlib

    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class LoadSplit:
    """Seconds and calls per load stage, outermost call of a stage only."""

    def __init__(self) -> None:
        self.on = False
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._open: set[str] = set()
        self._adopted = False

    def wrap(self, target: str, stage: str) -> None:
        owner, attr = resolve(target)
        original = getattr(owner, attr)

        def timed(*args, **kwargs):
            if not self.on or stage in self._open:
                return original(*args, **kwargs)
            self._open.add(stage)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self._open.discard(stage)
            name = stage
            if stage == "adopt":
                self._adopted = result is not None
            elif stage == "job":
                name = "adopted moves" if self._adopted else "merges"
                self._adopted = False
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
            self.calls[name] = self.calls.get(name, 0) + 1
            return result

        setattr(owner, attr, timed)

    def report(self, load_s: float, records: int) -> None:
        spent = dict.fromkeys(("flush", "compaction", "scheduling", "adopted moves", "merges"), 0.0)
        spent.update(self.seconds)
        spent["commit path"] = load_s - spent["flush"] - spent["compaction"]
        spent["install/other"] = spent["compaction"] - sum(
            spent[stage] for stage in ("scheduling", "adopted moves", "merges"))
        print(f" load: {load_s:.3f} s for {records} records, "
              f"{load_s * 1e6 / records:.2f} us/record")
        for stage in ("commit path", "flush", "scheduling", "adopted moves", "merges",
                      "install/other"):
            calls = self.calls.get(stage, 0)
            print(f"  {stage:14s} {spent[stage] * 1e3:9.1f} ms  "
                  f"{spent[stage] / load_s * 100:5.1f} % of load  "
                  f"{spent[stage] * 1e6 / records:5.2f} us/record"
                  + (f"  {calls:6d} calls" if calls else ""))


class StageClock:
    """Seconds and calls per (context, stage), outermost call of a stage only."""

    def __init__(self) -> None:
        self.seconds: dict[tuple[str, str], float] = {}
        self.calls: dict[tuple[str, str], int] = {}
        self._context = "other"
        self._open: set[str] = set()

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()

    def wrap(self, target: str, stage: str, *, context: bool) -> None:
        owner, attr = resolve(target)
        original = getattr(owner, attr)

        def timed(*args, **kwargs):
            if stage in self._open:
                return original(*args, **kwargs)
            self._open.add(stage)
            outer = self._context
            if context:
                self._context = stage
            key = (self._context, "whole" if context else stage)
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds[key] = self.seconds.get(key, 0.0) + time.perf_counter() - started
                self.calls[key] = self.calls.get(key, 0) + 1
                self._context = outer
                self._open.discard(stage)

        setattr(owner, attr, timed)


class ReadSplit:
    """Seconds and calls of the measured run's reads, wrapped from outside.

    Point reads (the read lane the harness fetches) and scans, then what
    they spend inside: data-block fetches split into cache misses and
    hits by the data-miss tally, and ``DataBlock.seek`` split into fresh
    seeks (no key of the block peeked yet) and memoized ones.
    """

    NAMES = ("point reads", "scans", "data-block misses", "data-block hits",
             "seek, fresh", "seek, memoized")

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(self.NAMES, 0.0)
        self.calls = dict.fromkeys(self.NAMES, 0)

    def _add(self, name: str, started: float) -> None:
        self.seconds[name] += time.perf_counter() - started
        self.calls[name] += 1

    def _timed(self, name: str, fn):
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(name, started)

        return timed

    def install(self, db) -> None:
        from repro.lsm.block import DataBlock
        from repro.lsm.block_cache import BlockType
        from repro.lsm.sstable import SSTable

        lane_factory = db.read_lane
        db.read_lane = lambda: self._timed("point reads", lane_factory())
        db.scan = self._timed("scans", db.scan)
        data_block, seek = SSTable._data_block, DataBlock.seek
        data = db.cache.stats.tallies[BlockType.DATA]

        def timed_fetch(*args, **kwargs):
            misses = data.misses
            started = time.perf_counter()
            try:
                return data_block(*args, **kwargs)
            finally:
                self._add("data-block misses" if data.misses != misses
                          else "data-block hits", started)

        def timed_seek(block, user_key):
            name = "seek, memoized" if block._peeked else "seek, fresh"
            started = time.perf_counter()
            try:
                return seek(block, user_key)
            finally:
                self._add(name, started)

        SSTable._data_block, DataBlock.seek = timed_fetch, timed_seek

    def report(self, measured: float) -> None:
        print(" reads (fetches and seeks are inside the reads and scans):")
        for name in self.NAMES:
            calls = self.calls[name]
            each = self.seconds[name] * 1e6 / calls if calls else 0.0
            print(f"  {name:17s} {self.seconds[name] * 1e3:9.1f} ms  "
                  f"{self.seconds[name] / measured * 100:5.1f} % of the region  "
                  f"{calls:7d} calls  {each:7.2f} us each")


def single_instance(args):
    """(workload, runner, config) built the way ``perfbench.worker`` builds them."""
    from perfbench.workloads import SPECS, single_configs
    from repro.bench import harness
    from repro.workloads.ycsb import YCSBWorkload

    spec = SPECS[args.workload]
    if spec.fleet:
        raise SystemExit("--stages runs single-instance workloads only")
    system_cfg, workload_cfg = single_configs(spec, args.first_seed, args.quick)
    workload = YCSBWorkload(workload_cfg)
    db = harness.build_system(system_cfg, workload)
    return workload, harness.WorkloadRunner(db, clients=system_cfg.clients), workload_cfg


def run_stages(args) -> int:
    clock = StageClock()
    for stage, target in CONTEXTS:
        clock.wrap(target, stage, context=True)
    for stage, target in STAGES:
        clock.wrap(target, stage, context=False)
    load = LoadSplit()
    for stage, target in LOAD_STAGES:
        load.wrap(target, stage)
    workload, runner, workload_cfg = single_instance(args)
    load.on = True
    started = time.perf_counter()
    runner.load(workload)
    load_s = time.perf_counter() - started
    load.on = False
    print(f"{args.workload} seed {args.first_seed}: load phase with the stage wrappers on")
    load.report(load_s, workload_cfg.record_count)
    if workload_cfg.warmup_operations > 0:
        runner.warmup(workload)
    clock.reset()
    reads = ReadSplit()
    reads.install(runner.db)
    started = time.perf_counter()
    runner.run(workload)
    measured = time.perf_counter() - started

    print(f"{args.workload} seed {args.first_seed}: measured region {measured:.3f} s "
          f"with the stage wrappers on")
    stage_names = list(dict.fromkeys(stage for stage, _ in STAGES))
    for context, _ in CONTEXTS:
        spent = {
            stage: clock.seconds.get((context, stage), 0.0) for stage in (*stage_names, "whole")
        }
        spent["finish/write"] -= spent["bloom"]
        spent[f"{context} self"] = spent["whole"] - sum(spent[stage] for stage in stage_names)
        print(f" {context}: {clock.calls.get((context, 'whole'), 0)} jobs")
        for stage in (*stage_names, f"{context} self", "whole"):
            calls = clock.calls.get((context, stage), 0)
            print(f"  {stage:14s} {spent[stage] * 1e3:9.1f} ms  "
                  f"{spent[stage] / measured * 100:5.1f} % of the region"
                  + (f"  {calls:6d} calls" if calls else ""))
    reads.report(measured)
    return 0


# ----------------------------------------------------------------------
# --heap: what the run keeps alive, by allocation site
# ----------------------------------------------------------------------
#: What ``perfbench.worker`` imports before it runs a workload of each kind.
WORKER_IMPORTS = {
    False: "import perfbench.worker, perfbench.oracle, repro.bench.harness, repro.workloads.ycsb",
    True: "import perfbench.worker, perfbench.oracle, repro.fleet.runner",
}

#: Prints ``<label> <peak RSS KiB> <loaded extension modules...>``; imports
#: nothing that is not already loaded at interpreter start.
FOOTPRINT = """
import sys
from importlib.machinery import EXTENSION_SUFFIXES
with open("/proc/self/status") as status:
    peak_kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print({label!r}, peak_kib, *sorted(
    name for name, module in list(sys.modules.items())
    if (getattr(getattr(module, "__spec__", None), "origin", None) or "").endswith(
        tuple(EXTENSION_SUFFIXES))), flush=True)
"""

#: A pool worker of a process run as ``-m perfbench.worker``, started by
#: the fan-out's own start method (printed as a row of its own): its
#: footprint after bootstrap, then after the import that unpickling the
#: fleet's shard function costs (none when forked).
POOL_WORKER = """
import importlib.util, multiprocessing
from repro.fleet.fanout import start_method
sys.modules["__main__"].__spec__ = importlib.util.find_spec("perfbench.worker")
method = start_method()
print("method", 0, method, flush=True)
with multiprocessing.get_context(method).Pool(1) as pool:
    pool.apply(exec, ({bootstrap!r}, {{}}))
    pool.apply(exec, ("import repro.fleet.runner" + {runner!r}, {{}}))
"""


def print_footprint(fleet: bool) -> None:
    """One line: a bare interpreter's peak RSS, the benchmark worker's after
    its imports, the extension modules those load beyond the bare set and,
    for the fleet, a pool worker's, started as the fan-out starts it.

    The probes read bytecode from their own ``PYTHONPYCACHEPREFIX``, warmed
    by one discarded probe, so no module is compiled inside a measured read.
    """
    code = WORKER_IMPORTS[fleet] + FOOTPRINT.format(label="imports")
    if fleet:
        code += POOL_WORKER.format(bootstrap=FOOTPRINT.format(label="bootstrap"),
                                   runner=FOOTPRINT.format(label="runner"))
    with tempfile.TemporaryDirectory(prefix="perf_pairs_footprint_") as pycache:
        env = dict(os.environ, PYTHONPATH=f"{ROOT}:{ROOT / 'src'}", PYTHONHASHSEED="0",
                   PYTHONPYCACHEPREFIX=pycache)
        # Only the warm probe writes the cache, even where the caller's
        # environment forbids it.
        env.pop("PYTHONDONTWRITEBYTECODE", None)

        def probe(code: str, *, warm: bool = False) -> dict[str, tuple[float, set[str]]]:
            probe_env = env if warm else dict(env, PYTHONDONTWRITEBYTECODE="1")
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=probe_env,
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"footprint probe exited {proc.returncode}\n{proc.stderr[-2000:]}")
            rows = (line.split() for line in proc.stdout.splitlines())
            return {label: (int(kib) / 1024, set(names)) for label, kib, *names in rows}

        probe(code, warm=True)  # discarded: fills the bytecode cache
        bare_mb, bare = probe(FOOTPRINT.format(label="bare"))["bare"]
        seen = probe(code)
    imports_mb, loaded = seen["imports"]
    line = (f"fixed footprint: bare interpreter {bare_mb:.2f} MB, after the worker's imports "
            f"{imports_mb:.2f} MB ({imports_mb - bare_mb:+.2f}); extension modules beyond "
            f"bare: {' '.join(sorted(loaded - bare)) or 'none'}")
    if fleet:
        (method,) = seen["method"][1]
        line += (f"; {method} pool worker {seen['bootstrap'][0]:.2f} MB after bootstrap, "
                 f"{seen['runner'][0]:.2f} MB after importing repro.fleet.runner")
    print(line, flush=True)


def run_fleet_heap(args) -> int:
    """Per shard of one worker's sequence: RSS high water, cyclic garbage, ownership."""
    import gc
    import resource
    import tracemalloc

    from perfbench.workloads import SPECS, fleet_config
    from repro.fleet.runner import run_shard
    from repro.fleet.workload import owned_indices

    config = fleet_config(SPECS[args.workload], args.first_seed, args.quick)
    tenant_keys = sum(tenant.key_count for tenant in config.tenants)
    gc.collect()
    tracemalloc.start()
    per_tenant = owned_indices(config.tenants, config.shards, config.vnodes)  # the cached pass
    ownership_bytes = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    print(f"{args.workload} seed {args.first_seed}: {config.shards} shards in-process, in order; "
          f"ownership map {ownership_bytes / 1e6:.2f} MB for {tenant_keys} tenant keys "
          f"({ownership_bytes / tenant_keys:.2f} B/key)")
    for shard_id in range(config.shards):
        run_shard(config, shard_id)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        garbage = gc.collect()
        columns = [per_shard[shard_id] for per_shard in per_tenant]
        keys = sum(len(column) for column in columns)
        column_bytes = sum(column.nbytes for column in columns)
        print(f"  shard {shard_id}: rss high water {peak_mb:7.1f} MB  "
              f"cyclic garbage {garbage:7d} objects  "
              f"ownership {column_bytes / keys:.2f} B/key ({keys} keys)")
    return 0


def run_heap(args) -> int:
    import gc
    import tracemalloc

    import perfbench.workloads  # noqa: F401  (imported before tracing starts,
    import repro.bench.harness  # noqa: F401   so module code is not in the table)
    from perfbench.workloads import SPECS

    print_footprint(SPECS[args.workload].fleet)
    if SPECS[args.workload].fleet:
        return run_fleet_heap(args)

    tracemalloc.start()
    workload, runner, workload_cfg = single_instance(args)
    records = workload_cfg.record_count
    # Each compaction job resets the peak, so the phase's is folded in
    # here; the widest job (most input records) of the phase is kept.
    executor = runner.db.executor
    execute, phase = executor.execute, {"peak": 0, "job": (0, 0, 0)}

    def traced_execute(job):
        stats = executor.stats
        records_in, written = stats.records_in, stats.bytes_written
        held, peak = tracemalloc.get_traced_memory()
        phase["peak"] = max(phase["peak"], peak)
        tracemalloc.reset_peak()
        execute(job)
        count = stats.records_in - records_in
        if count > phase["job"][0]:
            beyond = tracemalloc.get_traced_memory()[1] - held - (stats.bytes_written - written)
            phase["job"] = (count, len(job.upper_inputs) + len(job.lower_inputs), beyond)

    executor.execute = traced_execute

    def where(stat) -> str:
        frame = stat.traceback[0]
        try:
            return f"{Path(frame.filename).resolve().relative_to(ROOT)}:{frame.lineno}"
        except ValueError:
            return f"{frame.filename}:{frame.lineno}"

    def report(name: str):
        gc.collect()
        traced, peak = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
        file_bytes = runner.db.total_data_bytes()
        print(f"\n{args.workload} seed {args.first_seed} {name}: traced {traced / 1e6:.1f} MB "
              f"(peak {max(peak, phase['peak']) / 1e6:.1f} MB), "
              f"table bytes {file_bytes / 1e6:.1f} MB, "
              f"{(traced - file_bytes) / records:.1f} B/record beyond table bytes "
              f"({records} records loaded)")
        count, files, beyond = phase["job"]
        if count:
            print(f"  widest compaction job: {files} input files, {count} records in, peak "
                  f"{beyond / 1e6:.2f} MB beyond its output bytes ({beyond / count:.0f} B/record)")
        phase.update(peak=0, job=(0, 0, 0))
        tracemalloc.reset_peak()
        for stat in snapshot.statistics("lineno")[:10]:
            print(f"  {stat.size / 1e6:7.2f} MB {stat.count:8d} blocks  {where(stat)}")
        return snapshot, traced, file_bytes

    runner.load(workload)
    loaded, loaded_traced, loaded_files = report("after load")
    if workload_cfg.warmup_operations > 0:
        runner.warmup(workload)
    runner.run(workload)
    ran, ran_traced, ran_files = report("after run")
    tracemalloc.stop()
    # What warm-up and run kept alive beyond new table bytes, per measured
    # op: a per-op leak (a sample, an edit, a key) shows as its own number.
    ops = workload_cfg.operation_count
    growth = (ran_traced - loaded_traced) - (ran_files - loaded_files)
    print(f"\nload -> run: {growth / 1e6:+.2f} MB retained beyond table bytes, "
          f"{growth / ops:.1f} B per measured op ({ops} ops); top growth sites:")
    for stat in ran.compare_to(loaded, "lineno")[:5]:
        print(f"  {stat.size_diff / 1e6:+7.2f} MB {stat.count_diff:+8d} blocks  {where(stat)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", help="git ref or directory of the parent checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--stages", action="store_true")
    parser.add_argument("--heap", action="store_true")
    args = parser.parse_args(argv)
    if args.stages or args.heap:
        sys.path[:0] = [str(ROOT), str(ROOT / "src")]
        return run_stages(args) if args.stages else run_heap(args)
    if not args.parent:
        parser.error("--parent is required unless --stages or --heap is given")
    with tempfile.TemporaryDirectory(prefix="perf_pairs_") as tmp:
        parent, pycache = Path(args.parent), Path(tmp) / "pycache"
        if not parent.is_dir():
            archive = subprocess.run(
                ["git", "archive", "--format=tar", args.parent], cwd=ROOT, capture_output=True
            )
            if archive.returncode != 0:
                parser.error(f"not a directory or git ref: {args.parent}")
            parent = Path(tmp) / "parent"
            parent.mkdir()
            tar_path = Path(tmp) / "parent.tar"
            tar_path.write_bytes(archive.stdout)
            with tarfile.open(tar_path) as tar:
                tar.extractall(parent)
            tar_path.unlink()
        return run_pairs(parent.resolve(), pycache, args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Interleaved parent/change pairs of one perfbench workload.

    python scripts/perf_pairs.py --parent <ref|path> --workload W --pairs N

Runs ``perfbench/run.py --workload W --seed s --seconds S --trace 0``
alternately in a checkout of the parent (a directory, or a git ref
exported with ``git archive`` into a temporary directory) and in the
working tree — seed ``s`` = 1..N, the side that runs first alternating —
and prints every pair, both medians with quartiles, and how many pairs
improved. Exits 1 if any ``sim_*`` metric or the failed count differs
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
tree's compaction jobs over one in-process run of the workload, taken by
wrapping the stage functions from outside (nothing under ``perfbench/``
or ``src/`` is edited). ``--heap`` prints, the same way, the working
tree's ``tracemalloc`` top ten allocation sites after the load phase and
after the measured run, with the traced bytes per loaded record beyond
the bytes the tables themselves hold, then what warm-up and run kept
alive beyond new table bytes per measured op and the five sites that
grew most.
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
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    if not warm:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
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
              f"median {change:+.1f}%  lower in {improved}/{len(rows)} pairs")
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
)


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
        import importlib

        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
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


def single_instance(args):
    """(workload, runner, config) built the way ``perfbench.worker`` builds them."""
    from perfbench.workloads import SPECS, single_configs
    from repro.bench import harness
    from repro.workloads.ycsb import YCSBWorkload

    spec = SPECS[args.workload]
    if spec.fleet:
        raise SystemExit("--stages and --heap run single-instance workloads only")
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
    workload, runner, workload_cfg = single_instance(args)
    runner.load(workload)
    if workload_cfg.warmup_operations > 0:
        runner.warmup(workload)
    clock.reset()
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
    return 0


# ----------------------------------------------------------------------
# --heap: what the run keeps alive, by allocation site
# ----------------------------------------------------------------------
def run_heap(args) -> int:
    import gc
    import tracemalloc

    import perfbench.workloads  # noqa: F401  (imported before tracing starts,
    import repro.bench.harness  # noqa: F401   so module code is not in the table)

    tracemalloc.start()
    workload, runner, workload_cfg = single_instance(args)
    records = workload_cfg.record_count

    def where(stat) -> str:
        frame = stat.traceback[0]
        try:
            return f"{Path(frame.filename).resolve().relative_to(ROOT)}:{frame.lineno}"
        except ValueError:
            return f"{frame.filename}:{frame.lineno}"

    def report(phase: str):
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
        traced = tracemalloc.get_traced_memory()[0]
        file_bytes = runner.db.total_data_bytes()
        print(f"\n{args.workload} seed {args.first_seed} {phase}: traced {traced / 1e6:.1f} MB, "
              f"table bytes {file_bytes / 1e6:.1f} MB, "
              f"{(traced - file_bytes) / records:.1f} B/record beyond table bytes "
              f"({records} records loaded)")
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

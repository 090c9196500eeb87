"""One repeat of one workload, in a fresh process.

    python -m perfbench.worker --workload NAME --seed N [--quick] [--trace]

Prints one JSON object (last line of stdout): host timings of the
set-up and of the measured region, the simulated metrics taken from the
production ``RunResult``, the oracle check, and — with ``--trace`` — the
per-layer ledger. ``setup_s`` counts from this module's first line, so
it includes the imports.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from perfbench.workloads import FLEET_JOBS, SPECS, fleet_config, single_configs  # noqa: E402

#: The issue's floor for reporting a scan percentile.
MIN_SCANS_FOR_P99 = 1_000


def _cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident set (Linux reports KiB): self, or the largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _sim_metrics(result) -> tuple[dict, dict]:
    """(simulated metrics, sample count behind each percentile)."""
    slow_tier = list(result.device_write_bytes)[-1]
    sim = {
        "sim_throughput_kops": result.throughput_kops,
        "sim_read_mean_usec": result.read_latency.mean,
        "sim_read_p50_usec": result.read_latency.p50,
        "sim_read_p99_usec": result.read_latency.p99,
        "sim_update_p99_usec": result.update_latency.p99,
        "sim_write_amp": result.write_amplification,
        "sim_slow_tier_write_amp": (
            result.device_write_bytes[slow_tier] / result.user_write_bytes
        ),
    }
    counts = {
        "sim_read_mean_usec": result.read_latency.count,
        "sim_read_p50_usec": result.read_latency.count,
        "sim_read_p99_usec": result.read_latency.count,
        "sim_update_p99_usec": result.update_latency.count,
    }
    if result.scan_latency.count >= MIN_SCANS_FOR_P99:
        sim["sim_scan_p99_usec"] = result.scan_latency.p99
        counts["sim_scan_p99_usec"] = result.scan_latency.count
    return sim, counts


def _install_tracing(extra_decorators=None):
    from perfbench.oracle import InlineChecker
    from perfbench.spans import SPAN_TABLE
    from perfbench.tracer import SpanTracer

    tracer = SpanTracer()
    checker = InlineChecker()
    oracle_entries: dict[str, int] = {}

    def oracle_span(fn, name):
        eid = oracle_entries.setdefault(name, tracer.entry("perfbench.oracle", name))
        return tracer.wrap(fn, eid)

    decorators = checker.decorators(oracle_span)
    decorators.update(extra_decorators or {})
    tracer.install(SPAN_TABLE, decorators)
    tracer.calibrate()
    return tracer, checker


class _SlicedWorkload:
    """The workload, with a time mark taken at every batch boundary.

    ``WorkloadRunner.run`` pulls ``run_batches()``; the marks cut the
    measured region into one slice per batch (1024 ops) without touching
    the harness. Every repeat of a seed executes the same ops in the
    same slices, which lets the reducer rebuild the region from the
    fastest repeat of each slice — robust to the seconds-long slow
    bursts of a shared host (see ``runner._quiet_seconds``).
    """

    def __init__(self, workload) -> None:
        self._workload = workload
        self.marks: list[tuple[float, float]] = []

    def __getattr__(self, name):
        return getattr(self._workload, name)

    def run_batches(self):
        marks = self.marks
        for index, batch in enumerate(self._workload.run_batches()):
            if index:
                marks.append((time.perf_counter(), time.process_time()))
            yield batch

    def slices(self, start: tuple[float, float], end: tuple[float, float]) -> list[list[float]]:
        """[wall s, cpu s] per slice; the slices partition [start, end]."""
        edges = [start, *self.marks, end]
        return [[b[0] - a[0], b[1] - a[1]] for a, b in zip(edges, edges[1:])]


def _recording(into: list):
    """Decorator: append everything the wrapped callable returns to ``into``."""

    def decorate(fn):
        def recording(*args, **kwargs):
            made = fn(*args, **kwargs)
            into.append(made)
            return made

        return recording

    return decorate


@contextlib.contextmanager
def _capturing(module, name: str, into: list):
    """Record what ``module.name(...)`` returns while the block runs."""
    original = getattr(module, name)
    setattr(module, name, _recording(into)(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def _result(*, setup_s, measured_s, cpu_s, peak_rss_mb, ops, sim, counts, attempted, failed,
            slices=None) -> dict:
    """The worker's result object (``slices`` only where the region was marked)."""
    host = {"setup_s": setup_s, "measured_s": measured_s, "cpu_s": cpu_s,
            "peak_rss_mb": peak_rss_mb, "ops_measured": ops}
    if slices is not None:
        host["slices"] = slices
    return {
        "host": host,
        "sim": sim,
        "sim_counts": counts,
        "check": {"attempted": ops + attempted, "failed": failed,
                  "verification_ops": attempted},
    }


def run_single(spec, seed: int, quick: bool, traced: bool) -> dict:
    from repro.bench import harness
    from repro.workloads.ycsb import YCSBWorkload

    from perfbench import oracle as oracle_mod

    system_cfg, workload_cfg = single_configs(spec, seed, quick)
    tracer = checker = None
    if traced:
        tracer, checker = _install_tracing()

    workload = YCSBWorkload(workload_cfg)
    db = harness.build_system(system_cfg, workload)
    runner = harness.WorkloadRunner(db, clients=system_cfg.clients)
    runner.load(workload)
    if workload_cfg.warmup_operations > 0:
        runner.warmup(workload)

    before = None
    if traced:
        from perfbench import ledger

        before = ledger.db_counters(db)
        tracer.on = checker.checking = True
    sliced = _SlicedWorkload(workload)
    setup_s = time.perf_counter() - _T0
    start = (time.perf_counter(), time.process_time())
    elapsed_usec = runner.run(sliced)
    end = (time.perf_counter(), time.process_time())
    measured_s = end[0] - start[0]
    cpu_s = end[1] - start[1]
    if traced:
        tracer.on = checker.checking = False
    peak_rss_mb = _peak_rss_mb()

    result = runner.result(spec.name, system_cfg, elapsed_usec)
    ops = result.operations
    sim, counts = _sim_metrics(result)

    if traced:
        oracle = checker.oracle
        attempted, failed = checker.attempted, checker.failed
    else:
        oracle = oracle_mod.replay_workload(YCSBWorkload(workload_cfg))
        scans = oracle_mod.VERIFY_SCANS if workload_cfg.scan_proportion > 0 else 0
        attempted, failed = oracle_mod.verify_sample(
            db, oracle, seed, scans=scans, max_scan=workload_cfg.max_scan_length
        )
    sim["sim_space_amp"] = db.total_data_bytes() / oracle.live_bytes()

    out = _result(setup_s=setup_s, measured_s=measured_s, cpu_s=cpu_s, peak_rss_mb=peak_rss_mb,
                  ops=ops, sim=sim, counts=counts, attempted=attempted, failed=failed,
                  slices=sliced.slices(start, end))
    if traced:
        tracker = getattr(db, "tracker", None)
        out["ledger"] = ledger.build_ledger(
            tracer,
            ops=ops,
            traced_wall_s=measured_s,
            db_deltas=[ledger.counters_delta(ledger.db_counters(db), before)],
            tracker_occupancy=len(tracker) / tracker.capacity if tracker else 0.0,
            timeline_samples=len(runner.sampler) if runner.sampler is not None else 0,
            shards=0,
            clients=system_cfg.clients,
        )
        out["raw_spans"] = tracer.raw_spans()
    return out


def run_fleet_workload(spec, seed: int, quick: bool, traced: bool) -> dict:
    from repro.fleet import runner as fleet_runner

    from perfbench import oracle as oracle_mod

    config = fleet_config(spec, seed, quick)
    dbs: list = []
    tracer = checker = None
    if traced:
        tracer, checker = _install_tracing(
            {"repro.bench.harness:build_system": _recording(dbs)}
        )
        tracer.on = checker.checking = True
    setup_s = time.perf_counter() - _T0
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    # Traced: in-process (jobs=1) so the spans are visible; the merged
    # artifact is bit-identical for any jobs value.
    merged = fleet_runner.run_fleet(config, jobs=1 if traced else FLEET_JOBS)
    measured_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    if traced:
        tracer.on = checker.checking = False
    peak_rss_mb = _peak_rss_mb()

    ops = merged.operations
    sim, counts = _sim_metrics(merged)
    by_kind = merged.read_latency.count + merged.update_latency.count + merged.scan_latency.count
    failed = int(ops != config.total_operations) + int(by_kind != ops)
    attempted = 2
    if traced:
        attempted += checker.attempted
        failed += checker.failed
        sim["sim_space_amp"] = (
            sum(db.total_data_bytes() for db in dbs) / checker.oracle.live_bytes()
        )
    else:
        # Re-run shard 0 in-process through the production run_shard: it
        # must reproduce the shard's line of the merged artifact exactly,
        # and its database must read back as the dict oracle says.
        workloads: list = []
        with _capturing(fleet_runner, "build_system", dbs), _capturing(
            fleet_runner, "ShardWorkload", workloads
        ):
            shard = fleet_runner.run_shard(config, 0)
        expected = merged.fleet["per_shard"][0]
        observed = {
            "shard": 0,
            "operations": shard.operations,
            "throughput_kops": shard.throughput_kops,
            "read_p99_usec": shard.read_latency.p99,
            "update_p99_usec": shard.update_latency.p99,
            "write_amplification": shard.write_amplification,
        }
        attempted += 1
        failed += int(observed != expected)
        oracle = oracle_mod.replay_workload(workloads[0])
        sample_attempted, sample_failed = oracle_mod.verify_sample(dbs[0], oracle, seed)
        attempted += sample_attempted
        failed += sample_failed

    out = _result(setup_s=setup_s, measured_s=measured_s, cpu_s=cpu_s, peak_rss_mb=peak_rss_mb,
                  ops=ops, sim=sim, counts=counts, attempted=attempted, failed=failed)
    if traced:
        from perfbench import ledger

        occupancy = [len(db.tracker) / db.tracker.capacity for db in dbs if hasattr(db, "tracker")]
        out["ledger"] = ledger.build_ledger(
            tracer,
            ops=ops,
            traced_wall_s=measured_s,
            db_deltas=[ledger.counters_delta(ledger.db_counters(db), None) for db in dbs],
            tracker_occupancy=sum(occupancy) / len(occupancy) if occupancy else 0.0,
            timeline_samples=len(merged.timeline.get("t_ms", ())),
            shards=config.shards,
            clients=config.clients,
        )
        out["raw_spans"] = tracer.raw_spans()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    spec = SPECS[args.workload]
    run = run_fleet_workload if spec.fleet else run_single
    out = run(spec, args.seed, args.quick, args.trace)
    out.update(workload=spec.name, seed=args.seed, quick=args.quick, traced=args.trace,
               sizes=spec.sizes(args.quick))
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

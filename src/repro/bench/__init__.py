"""Benchmark harness: system builders, the closed-loop runner, experiments."""

from repro.bench.harness import (
    RunResult,
    SystemConfig,
    WorkloadRunner,
    build_system,
    run_experiment,
)
from repro.bench.reporting import format_experiment, format_table

__all__ = [
    "RunResult",
    "SystemConfig",
    "WorkloadRunner",
    "build_system",
    "run_experiment",
    "format_experiment",
    "format_table",
]

"""Shared infrastructure: simulated clock, units, RNG, metrics."""

from repro.common.clock import SimClock
from repro.common.rng import derive_seed, fnv1a_64, make_rng
from repro.common.stats import (
    CounterSet,
    LatencyRecorder,
    LatencySummary,
    nearest_rank,
    throughput_kops,
)
from repro.common.units import (
    BLOCK_SIZE,
    GIB,
    KIB,
    MIB,
    format_usec,
    seconds,
)

__all__ = [
    "SimClock",
    "derive_seed",
    "fnv1a_64",
    "make_rng",
    "CounterSet",
    "LatencyRecorder",
    "LatencySummary",
    "nearest_rank",
    "throughput_kops",
    "BLOCK_SIZE",
    "GIB",
    "KIB",
    "MIB",
    "format_usec",
    "seconds",
]

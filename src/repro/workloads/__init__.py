"""YCSB-style workload generators."""

from repro.workloads.trace import TraceWorkload, dump_trace, load_trace
from repro.workloads.ycsb import RequestBatch, YCSBConfig, YCSBWorkload
from repro.workloads.zipfian import (
    KeyIndexGenerator,
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
    make_generator,
)

__all__ = [
    "TraceWorkload",
    "dump_trace",
    "load_trace",
    "RequestBatch",
    "YCSBConfig",
    "YCSBWorkload",
    "KeyIndexGenerator",
    "LatestGenerator",
    "ScrambledZipfianGenerator",
    "UniformGenerator",
    "ZipfianGenerator",
    "make_generator",
]

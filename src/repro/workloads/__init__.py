"""YCSB-style workload generators."""

from repro.workloads.trace import TraceWorkload, dump_trace, load_trace
from repro.workloads.ycsb import (
    OpKind,
    Request,
    RequestBatch,
    YCSBConfig,
    YCSBWorkload,
    batches_from_requests,
)
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
    "OpKind",
    "Request",
    "RequestBatch",
    "YCSBConfig",
    "YCSBWorkload",
    "batches_from_requests",
    "KeyIndexGenerator",
    "LatestGenerator",
    "ScrambledZipfianGenerator",
    "UniformGenerator",
    "ZipfianGenerator",
    "make_generator",
]

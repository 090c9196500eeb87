"""YCSB-style workload generators."""

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

"""The C extension modules an engine process may load.

Every process the benchmark starts (a single-instance run, the fleet
router, each pool worker) pays for every shared library it loads, once;
a forked pool worker shares the router's, a spawned one loads its own.
OpenSSL's ``_hashlib`` alone is ~3.7 MB of resident memory, an eighth of
a fleet worker's peak. This test drives the engine's entry points in a
fresh interpreter and fails, naming the module, when they load an
extension module that neither a bare interpreter in the same
environment nor :data:`ALLOWED` accounts for.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Beyond a bare interpreter's own. The second group is what ``site``
#: (its ``.pth`` files) may already have loaded, so a site-less
#: interpreter adds them too. ``_sha256`` (3.10-3.11) and ``_sha2``
#: (3.12+) are the built-in SHA-256 that ``derive_seed`` uses.
ALLOWED = frozenset({
    "_heapq", "_opcode", "_pickle", "_sha256", "_sha2", "_socket", "array", "select",
    "_bisect", "_json", "_random", "_sha512", "_struct", "_typing", "math",
})

#: Appended to the code under test: prints the loaded extension modules
#: (and imports none itself).
LOADED = """
import importlib.machinery, sys
suffixes = tuple(importlib.machinery.EXTENSION_SUFFIXES)
origins = {name: getattr(getattr(module, "__spec__", None), "origin", None) or ""
           for name, module in list(sys.modules.items())}
print(*sorted(name for name, origin in origins.items() if origin.endswith(suffixes)))
"""

ENGINE = """
import repro
import repro.bench.harness as harness
import repro.fleet.runner as fleet_runner
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

for system in ("prismdb", "rocksdb", "mutant"):
    workload = YCSBWorkload(YCSBConfig(
        record_count=600, operation_count=400, warmup_operations=100, seed=1))
    config = harness.SystemConfig(system=system)
    runner = harness.WorkloadRunner(
        harness.build_system(config, workload),
        sample_interval_ms=0.5, attribution_sample_every=4)
    runner.load(workload)
    runner.warmup(workload)
    runner.result(system, config, runner.run(workload))
config = fleet_runner.FleetConfig(
    shards=2, tenants=fleet_runner.default_tenants(2, keys_per_tenant=400),
    total_operations=400, warmup_operations=50, sample_interval_ms=0.5)
fleet_runner.run_shard(config, 0)
"""


def extension_modules(flags: tuple[str, ...], code: str) -> set[str]:
    """Extension modules loaded (from a shared library) once ``code`` has run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code + LOADED],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(proc.stdout.splitlines()[-1].split())


def test_a_loaded_name_is_an_extension_module():
    loaded = extension_modules((), "import _heapq, heapq")
    assert "_heapq" in loaded and "heapq" not in loaded
    assert not loaded & set(sys.builtin_module_names)


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
def test_the_engine_loads_only_allowed_extension_modules(flags):
    bare = extension_modules(flags, "")
    unlisted = extension_modules(flags, ENGINE) - bare - ALLOWED
    assert not unlisted, f"the engine loaded unlisted extension modules: {sorted(unlisted)}"

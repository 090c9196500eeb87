"""What a fleet worker holds, and how a failing shard reports itself.

A pool worker runs many shards in turn, so each shard's engine must be
freed by reference counting the moment ``run_shard`` returns — the
checks run with the cyclic GC off, so an engine kept alive by a
reference cycle fails here instead of growing a worker's RSS by one
engine per shard. A shard that raises must come back, inline or from a
spawn pool, as a :class:`~repro.errors.ShardError` that names the shard
and its seed and carries a ``run_shard`` call that reproduces it.
"""

import gc
import pickle
import weakref

import pytest

from repro.errors import ConfigError, ShardError
from repro.fleet import runner as fleet_runner
from repro.fleet.runner import FleetConfig, default_tenants, run_fleet, run_shard
from repro.fleet.workload import TenantSpec


@pytest.fixture
def no_cyclic_gc():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("system", ["prismdb", "rocksdb", "mutant"])
def test_run_shard_frees_its_engine_on_return(system, monkeypatch, no_cyclic_gc):
    engines = []
    build_system = fleet_runner.build_system

    def build_and_watch(*args, **kwargs):
        db = build_system(*args, **kwargs)
        engines.append(weakref.ref(db))
        return db

    monkeypatch.setattr(fleet_runner, "build_system", build_and_watch)
    config = FleetConfig(
        system=system,
        shards=2,
        tenants=default_tenants(2, keys_per_tenant=800),
        total_operations=1_500,
        warmup_operations=200,
        sample_interval_ms=0.5,
        attribution_sample_every=4,
    )
    result = run_shard(config, 0)
    assert len(result.timeline["t_ms"]) > 0 and result.attribution
    assert len(engines) == 1
    assert engines[0]() is None, "a reference cycle kept the shard's engine alive"


def empty_shard_config() -> FleetConfig:
    # One vnode per shard and one key: shard 0 owns it, shard 1 owns nothing.
    return FleetConfig(
        shards=2, tenants=(TenantSpec("t", key_count=1),), vnodes=1, total_operations=10
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_shard_names_itself_and_its_repro(jobs):
    config = empty_shard_config()
    with pytest.raises(ShardError) as caught:
        run_fleet(config, jobs=jobs)
    error = caught.value
    assert (error.shard_id, error.seed) == (1, config.shard_seed(1))
    assert "owns no keys" in error.cause
    assert error.repro == f"run_shard({config!r}, 1)" and "\n" not in error.repro
    assert f"shard 1 (seed {config.shard_seed(1)})" in str(error)

    copy = pickle.loads(pickle.dumps(error))
    assert str(copy) == str(error) and copy.repro == error.repro

    # The repro line runs as written and fails the same way.
    namespace = {"run_shard": run_shard, "FleetConfig": FleetConfig, "TenantSpec": TenantSpec}
    with pytest.raises(ConfigError, match="shard 1 owns no keys"):
        eval(error.repro, namespace)

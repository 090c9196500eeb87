"""Worker-count invariance, pinned to committed results.

The fleet contract: the merged artifact is a pure function of the
``FleetConfig`` — never of ``--jobs``, the pool's start method, process
scheduling, or wall-clock time. The fast test proves bit-identity
between an inline run and a 2-process run of the same 4-shard fleet
under both ``fork`` (the Linux default) and ``spawn`` (the only method
on macOS and Windows), and pins the result to the committed
``baseline_fleet.json`` so cross-PR drift is caught even when both job
counts drift together (``python scripts/rebaseline.py`` rewrites it).

The slow companion is the ISSUE-scale run — 16 shards, 10^7 fleet
operations — that only manifests behaviours (level spills, compaction
cascades, pool backlog) the small run never reaches:

    PYTHONPATH=src python -m pytest -m slow tests/fleet/test_fleet_determinism.py

If a simulated-behaviour change is intentional, rerun the slow test and
copy the digest from the assertion message into EXPECTED_SLOW_DIGEST.
"""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import threading

import pytest

from repro.bench.compare import comparable_scalars
from repro.fleet import fanout
from repro.fleet.runner import FleetConfig, default_tenants, run_fleet

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: The committed fleet smoke: fast_config() run inline (scripts/rebaseline.py).
BASELINE_FLEET = os.path.join(REPO_ROOT, "benchmarks", "results", "baseline_fleet.json")

#: sha256 over the sorted-key JSON of comparable_scalars(merged result).
EXPECTED_SLOW_DIGEST = (
    "7dec35e507f601efa52e8e72932222669d2880c06b561f2866363c32da35bdd0"
)


def digest(result):
    payload = json.dumps(comparable_scalars(result), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fast_config():
    # Sub-ms sampling: smoke shards simulate only a few ms, and the
    # digest must cover a populated timeline + device-pool overlay.
    return FleetConfig(
        shards=4,
        tenants=default_tenants(2, keys_per_tenant=1_500),
        total_operations=6_000,
        seed=0,
        sample_interval_ms=0.5,
    )


FORK = pytest.param(
    "fork",
    marks=[
        pytest.mark.skipif(
            "fork" not in multiprocessing.get_all_start_methods(),
            reason="no fork on this platform",
        ),
        pytest.mark.filterwarnings("error::DeprecationWarning"),
    ],
)


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("method", [FORK, "spawn"])
    def test_jobs_do_not_change_the_artifact(self, method, monkeypatch):
        # One inline run, one through a pool started by ``method``: the
        # full JSON artifacts (metrics, timeline, attribution, fleet
        # block) must be byte-identical — --jobs buys wall clock and
        # nothing else.
        monkeypatch.setattr(fanout, "start_method", lambda: method)
        config = fast_config()
        inline = run_fleet(config, jobs=1)
        fanned = run_fleet(config, jobs=2)
        a = json.dumps(inline.to_json(), sort_keys=True)
        b = json.dumps(fanned.to_json(), sort_keys=True)
        assert a == b

        # The committed artifact pins every scalar, registry series,
        # timeline row and the pool block.
        with open(BASELINE_FLEET, encoding="utf-8") as fh:
            assert inline.to_json() == json.load(fh), (
                "4-shard fleet artifact drifted from baseline_fleet.json; if the "
                "behaviour change is intentional, run `python scripts/rebaseline.py`"
            )

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="fork is Linux-only")
    def test_a_single_threaded_caller_on_linux_gets_fork(self):
        code = "from repro.fleet.fanout import start_method; print(start_method())"
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "fork"

    def test_a_caller_with_a_second_thread_gets_spawn(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert fanout.start_method() == "spawn"
        finally:
            release.set()
            thread.join()

    def test_seed_still_matters(self):
        # Guard against the invariance being vacuous (everything
        # collapsing to one artifact regardless of config).
        base = run_fleet(fast_config(), jobs=1)
        other = run_fleet(dataclasses.replace(fast_config(), seed=1), jobs=1)
        assert base.to_json() != other.to_json()


@pytest.mark.slow
def test_issue_scale_fleet_matches_committed_digest():
    # The ISSUE acceptance run: 16 shards, 10^7 fleet ops over four
    # 100k-key tenants. jobs=4 exercises the pool at scale; invariance
    # vs jobs=1 is already pinned by the fast test, so this run only
    # checks the digest (a second full run would double the wall clock).
    config = FleetConfig(
        shards=16,
        tenants=default_tenants(4, keys_per_tenant=100_000),
        total_operations=10_000_000,
        seed=0,
    )
    result = run_fleet(config, jobs=4)
    got = digest(result)
    assert got == EXPECTED_SLOW_DIGEST, (
        "16-shard fleet metrics drifted from the committed digest "
        f"(got {got}); if the behaviour change is intentional, update "
        "EXPECTED_SLOW_DIGEST in this test"
    )

"""Conservation laws over every committed smoke baseline.

Each ``benchmarks/results/baseline_*.json`` reports the same bytes and
operations twice: as ``RunResult`` scalars and as registry series in
its ``metrics`` block. The two views come from different code (engine
stats objects vs. registry views), so requiring them to agree exactly
catches a counter that drifts on one side. The checks read the
committed artifacts only; nothing is simulated.
"""

import glob
import json
import os

import pytest

RESULTS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks", "results",
)
BASELINES = sorted(glob.glob(os.path.join(RESULTS, "baseline_*.json")))

#: The fleet's router-side group commit charges WAL bytes to the device
#: that no registry series counts yet (ROADMAP item 1b): the artifact's
#: WAL-tier write bytes exceed the registry's there, and only there.
GROUPED_WAL_TIER = ("baseline_fleet.json", "nvm-L0-L2")


def total(artifact: dict, name: str, **labels) -> float:
    """Sum of a registry counter's series whose labels include ``labels``."""
    return sum(
        row["value"]
        for row in artifact["metrics"][name]["series"]
        if all(row["labels"].get(key) == value for key, value in labels.items())
    )


@pytest.fixture(params=BASELINES, ids=os.path.basename)
def baseline(request):
    with open(request.param, encoding="utf-8") as fh:
        return os.path.basename(request.param), json.load(fh)


def test_every_smoke_baseline_is_checked():
    assert [os.path.basename(path) for path in BASELINES] == [
        "baseline_fleet.json", "baseline_mutant.json", "baseline_prismdb.json",
        "baseline_rocksdb.json", "baseline_scan.json",
    ]


def test_level_bytes_are_flush_plus_compaction_bytes(baseline):
    _, artifact = baseline
    level_bytes = sum(artifact["per_level_write_bytes"].values())
    assert level_bytes == artifact["flush_bytes"] + artifact["compaction_write_bytes"]
    assert total(artifact, "compaction.write_bytes") == level_bytes


def test_registry_counts_equal_the_scalars(baseline):
    _, artifact = baseline
    assert total(artifact, "db.flush.bytes") == artifact["flush_bytes"]
    assert total(artifact, "compaction.count") == artifact["compactions"]


def test_write_amplification_is_written_over_user_bytes(baseline):
    _, artifact = baseline
    written = artifact["flush_bytes"] + artifact["compaction_write_bytes"] + artifact["wal_bytes"]
    assert artifact["write_amplification"] == written / artifact["user_write_bytes"]


def test_every_read_has_one_source(baseline):
    _, artifact = baseline
    assert sum(artifact["reads_by_source"].values()) == artifact["read_latency"]["count"]


def test_device_bytes_match_the_registry_per_tier(baseline):
    name, artifact = baseline
    for tier, read_bytes in artifact["device_read_bytes"].items():
        assert total(artifact, "device.read_bytes", tier=tier) == read_bytes, tier
    for tier, write_bytes in artifact["device_write_bytes"].items():
        registry = total(artifact, "device.write_bytes", tier=tier)
        if (name, tier) == GROUPED_WAL_TIER:
            assert write_bytes > registry, tier
        else:
            assert registry == write_bytes, tier

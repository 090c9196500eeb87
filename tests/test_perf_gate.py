"""``scripts/perf_gate.py``'s trajectory: simulated metrics, one point per change.

The script is loaded by path with ``SMOKE_FILE`` pointed at a temporary
file, and fed stand-in results, so no smoke run happens here.
"""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "perf_gate.py"


@pytest.fixture
def gate(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perf_gate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "SMOKE_FILE", str(tmp_path / "BENCH_SMOKE.json"))
    monkeypatch.setattr(module, "git_commit", lambda: "abc1234")
    return module


def result(kops):
    latency = SimpleNamespace(p99=12.5)
    return SimpleNamespace(
        throughput_kops=kops,
        read_latency=latency,
        update_latency=latency,
        write_amplification=2.0,
    )


def points(gate):
    with open(gate.SMOKE_FILE, encoding="utf-8") as fh:
        return json.load(fh)["points"]


def test_point_records_wall_clock_and_no_micros(gate):
    gate.append_trajectory_point({"rocksdb": result(10.0)}, {"rocksdb": 1.0})
    (point,) = points(gate)
    assert "micros" not in point
    assert point["systems"]["rocksdb"]["wall_clock_sec"] == 1.0


def test_repeat_differing_only_in_wall_clock_appends_nothing(gate):
    gate.append_trajectory_point({"rocksdb": result(10.0)}, {"rocksdb": 1.0})
    gate.append_trajectory_point({"rocksdb": result(10.0)}, {"rocksdb": 3.0})
    assert len(points(gate)) == 1
    gate.append_trajectory_point({"rocksdb": result(11.0)}, {"rocksdb": 3.0})
    assert len(points(gate)) == 2


def test_prune_collapses_consecutive_duplicates(gate):
    def point(commit, wall):
        metrics = {"throughput_kops": 1.0, "wall_clock_sec": wall}
        return {"commit": commit, "systems": {"rocksdb": metrics}}

    history = [point("a", 1.0), point("a", 2.0), point("b", 1.0), point("a", 1.0)]
    kept, removed = gate.prune_duplicate_points(history)
    assert removed == 1
    assert kept == [history[0], history[2], history[3]]

"""What ``perfbench/`` needs from ``src/`` by name, checked in tier-1.

The benchmark wraps the engine from outside: a span table of import
paths, and an inline oracle that decorates the lane factories with
fixed-arity closures. A rename or a moved override only shows up in the
traced benchmark run; these checks fail here first. Nothing under
``perfbench/`` is executed beyond importing its tables.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # ``perfbench`` lives beside ``tests``, not under ``src``
    sys.path.insert(0, str(ROOT))

from perfbench.oracle import InlineChecker  # noqa: E402
from perfbench.spans import SPAN_TABLE  # noqa: E402

from repro.baselines import MutantDB, MutantOptions  # noqa: E402
from repro.core import PrismDB  # noqa: E402
from repro.lsm import LsmDB  # noqa: E402


def resolve(target: str):
    """The tracer's walk: import the module, getattr down, static last hop."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return inspect.getattr_static(owner, attr)


def test_every_span_target_resolves():
    missing = []
    for row in SPAN_TABLE:
        try:
            resolve(row.target)
        except (ImportError, AttributeError):
            missing.append(row.target)
    assert missing == []


def test_oracle_decorates_span_table_factories():
    factories = {row.target for row in SPAN_TABLE if row.factory}
    decorated = set(InlineChecker().decorators(lambda fn, name: fn))
    assert {
        "repro.lsm.db:LsmDB.read_lane",
        "repro.core.prismdb:PrismDB.read_lane",
        "repro.lsm.db:LsmDB.write_lane",
    } <= decorated & factories


def test_prismdb_read_lane_is_its_own_attribute():
    # The oracle decorates LsmDB.read_lane and PrismDB.read_lane separately.
    # If PrismDB inherited read_lane and put its tail in _build_read_lane
    # instead, both decorators would wrap the same closure and every read
    # would be checked (and counted) twice.
    assert "read_lane" in vars(PrismDB)
    assert "_build_read_lane" not in vars(PrismDB)
    for name in ("read_lane", "write_lane", "_build_read_lane"):
        assert name in vars(LsmDB)


@pytest.mark.parametrize(
    "make",
    [
        lambda: LsmDB.create("NNNTQ"),
        lambda: PrismDB.create("NNNTQ"),
        lambda: MutantDB.create("NNNTQ", None, MutantOptions()),
    ],
    ids=["lsm", "prismdb", "mutant"],
)
def test_lanes_take_the_oracle_arities(make):
    db = make()
    commit = db.write_lane()
    lookup = db.read_lane()
    assert commit(b"k", b"v").latency_usec > 0  # oracle: lane(key, value)
    assert lookup(b"k").value == b"v"  # oracle: lane(key)
    # The engine's own read path goes through the private factory by name.
    assert db._build_read_lane()(b"k").value == b"v"

"""Every JSON in ``benchmarks/results/`` is a baseline that a tier-1 test pins.

``scripts/rebaseline.py`` is loaded by path for its cells; no smoke run happens here.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "rebaseline.py"


@pytest.fixture
def rebaseline():
    spec = importlib.util.spec_from_file_location("rebaseline", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_result_json_is_a_pinned_baseline(rebaseline):
    # Each cell's baseline is compared exactly by the tier-1 test that
    # defines the cell; any other JSON here is an artifact nothing checks.
    on_disk = sorted(path.name for path in rebaseline.RESULTS_DIR.glob("*.json"))
    assert on_disk == sorted(f"baseline_{name}.json" for name in rebaseline.cells())

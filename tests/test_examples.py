"""The fast examples run to completion as scripts.

The examples are callers of the public API like any other: a renamed or
deleted name they use must fail here, not in a reader's terminal. Each
one runs in a fresh interpreter with ``src`` on the path, the way its
docstring says to run it. ``social_graph_cache.py`` and
``tiering_deep_dive.py`` take seconds each and run in ``scripts/check.sh``
instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script", ["quickstart.py", "capacity_planning.py", "crash_recovery.py"]
)
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()

"""perfbench: the two-clock benchmark of the PrismDB reproduction.

Four workloads, each reported on two clocks: the *simulated* clock
carries the paper's throughput / tail-latency / write-amplification
claims, the *host* clock carries what the simulator costs to run. A
separate traced run splits host time by layer (see README.md).

The package only *imports* ``repro``; it changes nothing under ``src/``.
``src/`` is put on ``sys.path`` here so that ``python -m perfbench`` and
``python3 perfbench/run.py`` work from a bare checkout without an
install step.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

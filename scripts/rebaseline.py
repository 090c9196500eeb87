#!/usr/bin/env python3
"""Rewrite every ``benchmarks/results/baseline_*.json``: ``python scripts/rebaseline.py``.

Re-runs each cell where it is defined, in the tier-1 test that pins its baseline exactly
(below), and prints ``unchanged`` or ``rewritten`` per file."""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"
sys.path.insert(0, str(REPO_ROOT / "src"))


def load(test_path: str):
    path = REPO_ROOT / "tests" / test_path
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cells() -> dict:
    """Baseline name -> its run: ``SMOKE_CASES``, plus the fleet test's ``fast_config()``."""
    fleet = load("fleet/test_fleet_determinism.py")
    smoke_cases = load("bench/test_smoke_determinism.py").SMOKE_CASES
    return {**smoke_cases, "fleet": lambda: fleet.run_fleet(fleet.fast_config())}


def main() -> None:
    for name, run in cells().items():
        path = RESULTS_DIR / f"baseline_{name}.json"
        before = path.read_bytes() if path.exists() else None
        run().save(str(path))
        print(f"{path.name}: {'unchanged' if path.read_bytes() == before else 'rewritten'}")


if __name__ == "__main__":
    main()

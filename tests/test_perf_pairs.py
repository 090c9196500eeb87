"""``scripts/perf_pairs.py``'s verdict: a direction only where the pairs resolve one.

The script is loaded by path and its :func:`verdict` fed stand-in
medians, so no benchmark run happens here; its ``--stages`` targets
are resolved without being wrapped.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "perf_pairs.py"


@pytest.fixture(scope="module")
def perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def verdict(perf_pairs):
    return perf_pairs.verdict


#: Ten parent runs: median 50.5, interquartile range 48.25..52.75 (4.5).
PARENT = [46.0, 47.0, 48.0, 49.0, 50.0, 51.0, 52.0, 53.0, 54.0, 55.0]


def test_one_pair_resolves_nothing(verdict):
    # A single pair, however large its delta.
    assert verdict([53.49], [60.65]) == "unresolved (1 pairs)"


def test_ten_clear_wins_each_way(verdict):
    assert verdict(PARENT, [v - 10.0 for v in PARENT]) == "lower"
    assert verdict(PARENT, [v + 10.0 for v in PARENT]) == "higher"


def test_nine_pairs_are_too_few(verdict):
    assert verdict(PARENT[:9], [v - 10.0 for v in PARENT[:9]]) == "unresolved (9 pairs)"


def test_nine_of_ten_wins_resolve_eight_do_not(verdict):
    nine = [v - 10.0 for v in PARENT[:9]] + [PARENT[9] + 1.0]
    eight = [v - 10.0 for v in PARENT[:8]] + [v + 1.0 for v in PARENT[8:]]
    assert verdict(PARENT, nine) == "lower"
    assert verdict(PARENT, eight) == "unresolved (10 pairs)"


def test_median_shift_within_the_parent_spread_is_unresolved(verdict):
    # Every pair lower, but by 4.0 against an interquartile range of 4.5.
    assert verdict(PARENT, [v - 4.0 for v in PARENT]) == "unresolved (10 pairs)"
    assert verdict(PARENT, [v - 5.0 for v in PARENT]) == "lower"


def test_every_stage_target_resolves(perf_pairs):
    # --stages wraps these from outside; check.sh runs it only as a
    # non-gating smoke, so a renamed target must fail here instead.
    for _, target in perf_pairs.CONTEXTS + perf_pairs.STAGES + perf_pairs.LOAD_STAGES:
        owner, attr = perf_pairs.resolve(target)
        assert callable(getattr(owner, attr)), target

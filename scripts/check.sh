#!/usr/bin/env bash
# CI-style check: compile, lint (when ruff is available), unit tests.
#
# The bench marker keeps the paper-artifact simulations out of this
# pass; run `pytest benchmarks` separately for those.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src

echo "== compileall =="
python -m compileall -q src tests scripts

if python -c "import ruff" >/dev/null 2>&1 || command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    if command -v ruff >/dev/null 2>&1; then
        ruff check src tests scripts
    else
        python -m ruff check src tests scripts
    fi
else
    echo "== ruff not installed; skipping lint =="
fi

echo "== docs link check =="
python scripts/check_links.py

echo "== unit tests (-m 'not bench') =="
python -m pytest -m "not bench" "$@"

# Gating: the engine's tests again under the dev-mode interpreter (debug
# allocator hooks, buffer and resource checks) with every warning an
# error, so the unboxed array and memoryview code in the block, table
# and storage layers runs under the interpreter's own checks.
echo "== engine tests under python -X dev -W error =="
python -X dev -W error -m pytest -q tests/core tests/lsm tests/storage \
    tests/bench/test_heap_budget.py

# Gating: a 3-point compaction design-space sweep (every shape at one
# mix, tiny workload) exercising every shape's job planning and sweep artifact
# plumbing end to end. The run is deterministic, so a broken shape
# fails here. Simulated numbers at this scale are not meaningful; the
# shapes' output is pinned by tests/bench/test_sweep.py (see
# docs/COMPACTION.md).
echo "== sweep-smoke =="
python -m repro.bench sweep --shapes leveling tiering lazy-leveling --mixes 95 \
    --records 600 --ops 500

# Gating: the two slower examples (seconds each) run to completion; the
# fast ones run in the unit pass (tests/test_examples.py).
echo "== examples =="
python examples/social_graph_cache.py >/dev/null
python examples/tiering_deep_dive.py >/dev/null

# Gating: latency-attribution smoke, the only end-to-end run of
# `report --attribution` -> `explain` (about 1.5 s). Two tiny seeded runs
# saved with --attribution, rendered and diffed by `repro.bench explain`.
# Asserts the charge seam's plumbing end to end (artifact schema v2,
# attribution block, table rendering); the numbers themselves are
# covered by deterministic tests in tests/bench/test_explain.py and
# tests/bench/test_harness.py::TestAttributionNeverPerturbs.
echo "== explain-smoke =="
explain_smoke() {
    local dir
    dir=$(mktemp -d)
    python -m repro.bench report --records 600 --ops 800 --seed 7 \
        --attribution --save "$dir/a.json" >/dev/null &&
    python -m repro.bench report --records 600 --ops 800 --seed 21 \
        --attribution --save "$dir/b.json" >/dev/null &&
    python -m repro.bench explain "$dir/a.json" \
        | grep "component/tier" >/dev/null &&
    python -m repro.bench explain "$dir/a.json" "$dir/b.json" \
        | grep "of the delta is explained" >/dev/null
    local status=$?
    rm -rf "$dir"
    return $status
}
if ! explain_smoke; then
    echo "explain-smoke failed"
    exit 1
fi

# Non-gating: perfbench self-tests and a quick benchmark pass. The
# benchmark driver runs perfbench against every PR from outside; these
# two steps surface a broken oracle or ledger here first. perfbench/tests
# is outside tier-1's testpaths, and --quick timings are smoke-sized, so
# neither gates. (Renamed span targets and lane arities *are* gated, by
# tests/test_perfbench_contract.py in the unit pass above.)
echo "== perfbench-smoke (non-gating) =="
if ! python -m pytest perfbench/tests -q; then
    echo "perfbench self-tests failed (non-gating); continuing"
fi
if ! python -m perfbench run --quick; then
    echo "perfbench quick run failed (non-gating); continuing"
fi

# Non-gating: one interleaved parent/change pair of the write-heavy
# benchmark workload at --quick sizes, working tree against HEAD
# (scripts/perf_pairs.py; a clean tree compares HEAD with itself). One
# smoke-sized pair resolves nothing about speed; what it checks is that
# every sim_* metric and the failed count are identical on both sides.
# Its verdicts read "unresolved": "lower"/"higher" needs 10+ pairs (verdict()).
echo "== perf-pairs smoke (non-gating) =="
if ! python scripts/perf_pairs.py --parent HEAD --workload write-heavy \
        --pairs 1 --quick; then
    echo "perf-pairs smoke failed or simulated results differ (non-gating); continuing"
fi

# Non-gating: what the read-hot run keeps alive at --quick op counts —
# tracemalloc's top allocation sites after load and after the run, the
# heap bytes per record beyond the tables' own bytes, and what the run
# kept alive per measured op with its five largest growth sites.
echo "== heap by allocation site (non-gating) =="
if ! python scripts/perf_pairs.py --workload read-hot --heap --quick; then
    echo "heap report failed (non-gating); continuing"
fi
# The fleet twin: fleet-mixed's shards in-process, in order, as one pool
# worker runs them — RSS high water, the cyclic garbage left behind and
# the ownership bytes per key after each shard.
if ! python scripts/perf_pairs.py --workload fleet-mixed --heap --quick; then
    echo "fleet heap report failed (non-gating); continuing"
fi

# Non-gating: where scan-cold's time goes — the load (commit path,
# flush, scheduling, adopted moves, merges), the measured run's
# compaction jobs, and its reads (point reads, scans, data-block misses
# and hits, fresh and memoized seeks) — at --quick op counts.
echo "== load, compaction and read stages (non-gating) =="
if ! python scripts/perf_pairs.py --workload scan-cold --stages --quick; then
    echo "stage split failed (non-gating); continuing"
fi

# Non-gating: Python line totals, so a PR's CHANGES.md line can quote
# the ROADMAP's "least code" number without hand-counting.
echo "== line totals (non-gating) =="
for tree in src tests; do
    echo "$tree: $(find "$tree" -name '*.py' -print0 | xargs -0 cat | wc -l) Python lines"
done

#!/usr/bin/env python3
"""Quickstart: a PrismDB over NVM/TLC/QLC in a dozen lines.

Creates the paper's default heterogeneous configuration (NNNTQ: levels
L0-L2 on NVM, L3 on TLC, L4 on QLC), writes and reads a few keys, and
prints what the simulated storage did.

Run:  python examples/quickstart.py
"""

from repro import PrismDB, PrismOptions, options_for_db_size
from repro.common import format_usec

N_KEYS = 20_000
VALUE = b"x" * 100


def main() -> None:
    options = options_for_db_size(N_KEYS * 130)
    db = PrismDB.create("NNNTQ", options, PrismOptions.for_keyspace(N_KEYS))

    print(f"layout: {db.layout.describe()}")
    print(f"storage cost: ${db.layout.total_cost_dollars():.4f}\n")

    # Load some data; writes go WAL -> memtable -> flush -> compaction.
    # Advancing the clock by each op's latency models a single client
    # issuing requests back to back (and lets background I/O drain).
    for i in range(N_KEYS):
        result = db.put(f"user{i:012d}".encode(), VALUE)
        db.clock.advance(result.latency_usec)
    db.flush()
    db.clock.advance(1_000_000)  # let compaction backlogs drain

    # Point reads return the value plus the simulated latency and the
    # LSM level that served them.
    for key in (b"user000000000000", b"user000000019999", b"user000000007777"):
        result = db.get(key)
        print(
            f"get {key.decode()}: found={result.found} "
            f"served_by={result.served_by} latency={format_usec(result.latency_usec)}"
        )

    # Updates and deletes are versioned; readers always see the newest.
    db.put(b"user000000000000", b"updated")
    print(f"\nafter update: {db.get(b'user000000000000').value!r}")
    db.delete(b"user000000000000")
    print(f"after delete: found={db.get(b'user000000000000').found}")

    # Range scans merge the memtable and every level.
    scan = db.scan(b"user000000000100", 3)
    print(f"\nscan from user...100: {[k.decode() for k, _ in scan.items]}")

    # Where did the data end up?
    print("\nlevel summary:")
    for row in db.level_summary():
        print(
            f"  L{row['level']}: {row['files']:4d} files, "
            f"{row['bytes']:>10,} B on {row['tier']}"
        )

    print(f"\ncompactions: {db.executor.stats.compactions}")
    print(f"records pinned by read-aware compaction: {db.executor.stats.records.get('pinned', 0)}")
    print(f"tracker occupancy: {len(db.tracker)}/{db.tracker.capacity}")


if __name__ == "__main__":
    main()

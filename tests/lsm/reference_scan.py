"""The generator-chain range scan, kept as the oracle for ``LsmDB.scan``.

This is the scan ``LsmDB`` ran before its one-loop merge over lazy
cursors: every touched block is materialized through
``DataBlock.records()``, each source is a generator yielding
``(record, step latency)``, and ``merge_records`` / ``visible_records``
(the streaming spec in ``repro.lsm.iterators``) order, shadow and filter
them. It goes through the same cache-mediated fetch helpers as the
engine, so run on a twin DB it must produce the same items *and* the
same simulated side: latency bit for bit, cache tallies, device stats.
``tests/lsm/test_scan_paths.py`` holds the twins together.
"""

import bisect

from repro.lsm.db import CPU_OVERHEAD_USEC, ScanResult
from repro.lsm.iterators import merge_records, visible_records
from repro.obs.attribution import attribute


def reference_iter_from(table, user_key, cache):
    """``SSTable.iter_from`` over fully decoded blocks."""
    pending_latency = table._load_index(cache)
    pos = bisect.bisect_left(table._index_keys, user_key)
    for offset, length in zip(table._index_offsets[pos:], table._index_lengths[pos:]):
        block, block_latency = table._data_block(offset, length, cache)
        pending_latency += block_latency
        for record in block.records():
            if record.user_key < user_key:
                continue
            yield record, pending_latency
            pending_latency = 0.0


def reference_scan(db, start_key, count):
    """``LsmDB.scan`` as a chain of generators over decoded records."""
    db._check_open()
    if count < 0:
        raise ValueError(f"negative scan count: {count}")
    latency = CPU_OVERHEAD_USEC
    attribute("cpu", "-", latency)
    latencies = [0.0]

    def charged(source):
        for record, step_latency in source:
            latencies[0] += step_latency
            yield record

    def level_iter(run, pos):
        for index in range(pos, len(run)):
            yield from reference_iter_from(run[index], start_key, db.cache)

    sources = [db._memtable.scan_from(start_key)]
    for table in db.manifest.files(0):
        if table.largest_key >= start_key:
            sources.append(charged(reference_iter_from(table, start_key, db.cache)))
    for level in range(1, db.manifest.num_levels):
        for run, pos in db.manifest.seek_runs(level, start_key):
            if pos < len(run):
                sources.append(charged(level_iter(run, pos)))
    items = []
    for record in visible_records(merge_records(sources)):
        if len(items) >= count:
            break
        items.append((record.user_key, record.value))
    latency += latencies[0]
    db.stats.user_scans += 1
    return ScanResult(items, latency)

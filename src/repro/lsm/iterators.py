"""Merging iterators: the record-domain merge specification.

A merge consumes multiple sorted record sources and produces a single
stream in internal-key order with version shadowing resolved (newest
version of each user key wins; older versions are dropped).
``merge_records`` provides the raw ordered merge; ``newest_versions``
layers the shadowing on top and ``visible_records`` the tombstone
filter of a read.

The engine's hot merges run in the encoded domain instead: compaction
merges byte spans (``repro.lsm.compaction``), and ``LsmDB.scan`` runs
one heap loop over lazy cursors
(:class:`~repro.lsm.sstable.RunCursor`). This module is the
specification both are held against: ``merge_sorted_lists`` orders the
compaction oracle (``tests/lsm/reference_merge.py``), and the streaming
path below is the range scan's (``tests/lsm/reference_scan.py`` chains
it exactly as ``LsmDB.scan`` used to), no longer the scan path itself — of
which only ``keyed_records`` remains, decorating the memtable's few
records for the scan heap.

Two merge strategies, picked per call:

* **Materialized sources** (every source is a ``list`` — fully decoded
  inputs): concatenate with ``list.extend`` and sort the combined list
  twice with C-implemented ``attrgetter`` keys — first by seqno
  descending, then stably by user key ascending. Timsort's stability
  makes the second pass preserve the first's order within equal user
  keys, yielding internal-key order with *zero Python-level calls per
  record*, and its galloping mode tears through the pre-sorted runs.
  This is ~4x faster than a ``heapq.merge`` generator pipeline at
  compaction-typical sizes.
* **Streaming sources** (anything lazy, e.g. ``SSTable.iter_from``):
  ``heapq.merge`` over streams decorated once per record with
  ``(user_key, MAX_SEQNO - seqno, record)``, preserving laziness. The
  decoration replaces a ``key=`` lambda that would otherwise run per
  heap *sift*; it forms a strict total order because sequence numbers
  are globally unique, so the trailing record is never compared.
"""

from __future__ import annotations

import heapq
from operator import attrgetter
from typing import Iterable, Iterator

from repro.lsm.record import MAX_SEQNO, Record, ValueKind

_BY_SEQNO = attrgetter("seqno")
_BY_USER_KEY = attrgetter("user_key")


def keyed_records(source: Iterable[Record]) -> Iterator[tuple[bytes, int, Record]]:
    """Decorate records as ``(user_key, inverted_seqno, record)`` tuples."""
    inverted = MAX_SEQNO
    for record in source:
        yield (record.user_key, inverted - record.seqno, record)


def merge_sorted_lists(sources: list[list[Record]]) -> list[Record]:
    """Merge materialized sorted record lists into one internal-key-ordered list.

    Two stable C-keyed sorts: secondary key first (seqno descending),
    then primary (user key ascending). See the module docstring for why
    this beats a heap merge.
    """
    combined: list[Record] = []
    for source in sources:
        combined.extend(source)
    combined.sort(key=_BY_SEQNO, reverse=True)
    combined.sort(key=_BY_USER_KEY)
    return combined


def merge_records(sources: Iterable[Iterable[Record]]) -> Iterator[Record]:
    """Merge pre-sorted record streams into internal-key order.

    Each source must already be sorted by (user key asc, seqno desc).
    Ties across sources are impossible (sequence numbers are globally
    unique). List sources take the sort-based fast path; lazy sources
    stream through ``heapq.merge``.
    """
    sources = list(sources)
    if all(isinstance(source, list) for source in sources):
        return iter(merge_sorted_lists(sources))
    return (item[2] for item in heapq.merge(*(keyed_records(source) for source in sources)))


def newest_versions(merged: Iterable[Record]) -> Iterator[Record]:
    """Collapse an internal-key-ordered stream to one record per user key.

    The first record seen for a user key is the newest (internal order
    puts higher seqnos first); all older versions are shadowed.
    Tombstones are *kept* — dropping them is a compaction decision that
    depends on the output level.
    """
    previous_key: bytes | None = None
    for record in merged:
        if record.user_key == previous_key:
            continue
        previous_key = record.user_key
        yield record


def visible_records(merged: Iterable[Record]) -> Iterator[Record]:
    """Like :func:`newest_versions` but also drops tombstoned keys.

    This is the read-path view used by range scans: a key whose newest
    version is a DELETE simply does not exist.
    """
    delete = ValueKind.DELETE
    for record in newest_versions(merged):
        if record.kind is not delete:
            yield record

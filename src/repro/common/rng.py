"""Deterministic random-number helpers.

Every stochastic component (workload generators, the mapper's
probabilistic pinning coin flip) takes an explicit seed or
:class:`random.Random` instance so runs are reproducible. This module
centralizes seed derivation so that two components seeded from the same
root seed do not accidentally share a stream.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(root_seed: int, *labels: str) -> int:
    """Derive a stable 63-bit child seed from a root seed and labels.

    The derivation hashes ``root_seed`` together with the label path, so
    ``derive_seed(s, "ycsb", "keys")`` and ``derive_seed(s, "mapper")``
    produce independent streams that are stable across runs and platforms.
    """
    h = hashlib.sha256()
    h.update(str(int(root_seed)).encode("ascii"))
    for label in labels:
        h.update(b"/")
        h.update(label.encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big") & ((1 << 63) - 1)


def make_rng(root_seed: int, *labels: str) -> random.Random:
    """Create a :class:`random.Random` seeded via :func:`derive_seed`."""
    return random.Random(derive_seed(root_seed, *labels))


#: Memo for :func:`fnv1a_64`, the one table of key hashes in the
#: process (the bloom filter's bulk build reads it directly). The hash
#: is byte-serial Python — the single hottest function in an end-to-end
#: profile — and its inputs repeat constantly: zipfian draws hammer the
#: hot keys and every compaction re-blooms the same user keys at the
#: next level. Bounded insert-only (no eviction bookkeeping); once full,
#: new keys just pay the loop. Memoization of a pure function cannot
#: affect results.
FNV_MEMO: dict[bytes, int] = {}
_FNV_MEMO_MAX = 1 << 20


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash, used for key scrambling and bloom filters.

    Pure-Python but cheap; chosen because it is deterministic across
    processes (unlike :func:`hash` with string randomization).
    """
    acc = FNV_MEMO.get(data)
    if acc is None:
        acc = 0xCBF29CE484222325
        for byte in data:
            acc = ((acc ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        if len(FNV_MEMO) < _FNV_MEMO_MAX:
            FNV_MEMO[data] = acc
    return acc

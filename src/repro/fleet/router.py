"""Consistent-hash request router over a fleet of shards.

The router is the fleet's single source of truth for key placement: the
workload generator uses it to decide which keys a shard owns. It must
therefore be *process stable* — every worker process, every run, every
platform must map a key to the same shard. Python's ``hash()`` is salted
per process, so both the ring points and the key hashes use
:func:`~repro.common.rng.fnv1a_64`.

Standard construction (Karger-style ring with virtual nodes): each shard
contributes ``vnodes`` points at ``fnv1a_64(b"shard<i>#<v>")``; a key
lands on the first ring point clockwise from ``fnv1a_64(key)``. More
virtual nodes flatten the ownership imbalance at O(shards * vnodes)
setup cost; the fleet's 64 (:data:`DEFAULT_VNODES`) keeps the max/mean
key-count ratio within a few percent for the fleet sizes the harness
runs (tested in ``tests/fleet/test_router.py``).
"""

from __future__ import annotations

from bisect import bisect_right

from repro.common.rng import fnv1a_64
from repro.errors import ConfigError

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Virtual nodes per shard on every fleet ring.
DEFAULT_VNODES = 64


def _mix64(value: int) -> int:
    """Murmur3's 64-bit finalizer: full-avalanche mix of an fnv hash.

    Raw fnv1a-64 over short structured inputs (``shard3#17``,
    ``t00-0000000042``) clusters badly in the high bits — measured arc
    imbalance of 9x on a 4-shard/64-vnode ring. One multiply-xorshift
    finalizer restores uniformity while staying pure-Python,
    deterministic and process-stable. Router-local on purpose:
    :func:`fnv1a_64` itself also feeds bloom filters and the zipfian
    scrambler, whose committed baselines must not move.
    """
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & _MASK64
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & _MASK64
    value ^= value >> 33
    return value


def ring_hash(data: bytes) -> int:
    """The router's position hash: finalized fnv1a-64 (process-stable)."""
    return _mix64(fnv1a_64(data))


class ConsistentHashRouter:
    """Maps keys to shard ids via an fnv1a-64 hash ring."""

    def __init__(self, num_shards: int, *, vnodes: int = DEFAULT_VNODES) -> None:
        if num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1: {num_shards}")
        if vnodes < 1:
            raise ConfigError(f"vnodes must be >= 1: {vnodes}")
        self.num_shards = num_shards
        self.vnodes = vnodes
        ring: list[tuple[int, int]] = []
        for shard in range(num_shards):
            for vnode in range(vnodes):
                point = ring_hash(f"shard{shard}#{vnode}".encode("ascii"))
                ring.append((point, shard))
        # Ties (two vnode labels hashing to one 64-bit point) resolve to
        # the lower shard id; sorting the pairs makes that deterministic.
        ring.sort()
        self._points = [point for point, _ in ring]
        self._owners = [shard for _, shard in ring]

    def shard_for_key(self, key: bytes) -> int:
        """The shard owning ``key``: first ring point clockwise of its hash."""
        position = bisect_right(self._points, ring_hash(key))
        if position == len(self._points):
            position = 0  # wrap past the top of the ring
        return self._owners[position]

    def shard_counts(self, keys) -> list[int]:
        """How many of ``keys`` each shard owns (balance diagnostics)."""
        counts = [0] * self.num_shards
        for key in keys:
            counts[self.shard_for_key(key)] += 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConsistentHashRouter(shards={self.num_shards}, vnodes={self.vnodes})"

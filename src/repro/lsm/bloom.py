"""Bloom filters for SSTables.

One filter per SSTable (as in the paper's description of RocksDB's read
path): before paying device I/O for an index or data block, the read path
consults the filter and skips files that definitely do not contain the
key. The implementation uses double hashing (Kirsch-Mitzenmacher) over a
64-bit FNV-1a base hash, the standard trick LevelDB/RocksDB use to derive
k probe positions from one hash computation.
"""

from __future__ import annotations

import math
import struct

from repro.common.rng import fnv1a_64
from repro.errors import CorruptionError

_HEADER = struct.Struct("<IB")  # bit count, probe count

#: byte-per-bit -> ASCII binary digit, for the 8:1 pack in ``add_many``.
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def key_hashes(keys) -> list[int]:
    """The 64-bit base hash of every key, in order."""
    return list(map(fnv1a_64, keys))


class BloomFilter:
    """A serializable bloom filter over byte-string keys."""

    def __init__(self, n_bits: int, n_probes: int, bits: bytearray | None = None) -> None:
        if n_bits <= 0:
            raise ValueError(f"n_bits must be positive: {n_bits}")
        if not 1 <= n_probes <= 30:
            raise ValueError(f"n_probes out of range: {n_probes}")
        self._n_bits = n_bits
        self._n_probes = n_probes
        n_bytes = (n_bits + 7) // 8
        if bits is None:
            self._bits = bytearray(n_bytes)
        else:
            if len(bits) != n_bytes:
                raise ValueError(f"bit array size mismatch: {len(bits)} != {n_bytes}")
            self._bits = bits

    @staticmethod
    def for_capacity(n_keys: int, bits_per_key: int = 10) -> "BloomFilter":
        """Size a filter for ``n_keys`` at ``bits_per_key`` (RocksDB default 10)."""
        n_bits = max(64, n_keys * bits_per_key)
        # Optimal probe count is ln(2) * bits/key, clamped like LevelDB.
        n_probes = max(1, min(30, int(round(bits_per_key * math.log(2)))))
        return BloomFilter(n_bits, n_probes)

    @property
    def n_bits(self) -> int:
        """Filter size in bits (introspection / attribution annotations)."""
        return self._n_bits

    @property
    def n_probes(self) -> int:
        """Hash probes per membership test; per-request attribution
        annotates bloom consultations with this cost in its slow-op log."""
        return self._n_probes

    def _positions(self, key: bytes):
        """The k probe positions for ``key`` (kept for tests/debugging).

        ``(h1 + i * h2) mod n_bits`` for i < k: an arithmetic progression,
        which is what lets :meth:`add_many` store all k with one slice.
        """
        base = fnv1a_64(key)
        h1 = base & 0xFFFFFFFF
        h2 = (base >> 32) | 1  # odd delta => full-period probing
        for i in range(self._n_probes):
            yield (h1 + i * h2) % self._n_bits

    def add(self, key: bytes) -> None:
        bits = self._bits
        for pos in self._positions(key):
            bits[pos >> 3] |= 1 << (pos & 7)

    def add_many(self, keys, hashes=None) -> None:
        """Bulk-insert ``keys``; equivalent to repeated :meth:`add`.

        ``hashes`` are the keys' :func:`key_hashes` when the caller
        already has them (a compaction carries them from its inputs).
        One body for every probe count and any prior filter state. A
        key's probes ``a, a + d, ..`` (``a = h1 % n``, ``d = h2 % n``)
        stay below ``k * n`` unreduced, so they are one extended-slice
        store into a byte-per-bit scratch of k segments of n bytes;
        position p of every segment is bit p. The segments are OR-folded
        as big integers, packed 8:1 through a binary-digit string, and
        OR-ed into the existing bits. The scratch is the only cost in
        memory: ``k * n_bits`` bytes, ~34 KB for a default 64 KiB file.
        """
        n_bits = self._n_bits
        n_probes = self._n_probes
        scratch = bytearray(n_probes * n_bits)
        ones = b"\x01" * n_probes
        for base in key_hashes(keys) if hashes is None else hashes:
            first = (base & 0xFFFFFFFF) % n_bits
            delta = ((base >> 32) | 1) % n_bits
            if delta:
                scratch[first : first + n_probes * delta : delta] = ones
            else:  # n_bits divides h2: every probe is the same bit
                scratch[first] = 1
        from_bytes = int.from_bytes
        folded = 0
        for lo in range(0, n_probes * n_bits, n_bits):
            folded |= from_bytes(scratch[lo : lo + n_bits], "little")
        # Big-endian puts position n_bits - 1 first: the digit string of
        # the integer whose bit p is position p.
        added = int(folded.to_bytes(n_bits, "big").translate(_TO_DIGITS), 2)
        bits = self._bits
        bits[:] = (from_bytes(bits, "little") | added).to_bytes(len(bits), "little")

    def may_contain(self, key: bytes, base: int | None = None) -> bool:
        """False means *definitely absent*; True means possibly present.
        ``base`` is ``fnv1a_64(key)`` when the caller already has it."""
        if base is None:
            base = fnv1a_64(key)
        h2 = (base >> 32) | 1
        n_bits = self._n_bits
        bits = self._bits
        h = base & 0xFFFFFFFF
        if self._n_probes == 7:
            # Unrolled for the default geometry (bits_per_key=10 ->
            # round(10*ln2)=7 probes): the point-read path pays this
            # once per probed table.
            pos = h % n_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            h += h2
            pos = h % n_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            h += h2
            pos = h % n_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            h += h2
            pos = h % n_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            h += h2
            pos = h % n_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            h += h2
            pos = h % n_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            h += h2
            pos = h % n_bits
            return bool(bits[pos >> 3] & (1 << (pos & 7)))
        for _ in range(self._n_probes):
            pos = h % n_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            h += h2
        return True

    @property
    def size_bytes(self) -> int:
        return _HEADER.size + len(self._bits)

    def encode(self) -> bytes:
        return _HEADER.pack(self._n_bits, self._n_probes) + bytes(self._bits)

    @staticmethod
    def decode(buf: bytes) -> "BloomFilter":
        if len(buf) < _HEADER.size:
            raise CorruptionError("truncated bloom filter header")
        n_bits, n_probes = _HEADER.unpack_from(buf, 0)
        body = bytearray(buf[_HEADER.size :])
        try:
            return BloomFilter(n_bits, n_probes, bits=body)
        except ValueError as exc:
            raise CorruptionError(f"corrupt bloom filter: {exc}") from exc

    def false_positive_rate(self, n_keys: int) -> float:
        """Theoretical FP rate after inserting ``n_keys`` keys."""
        if n_keys == 0:
            return 0.0
        fill = 1.0 - math.exp(-self._n_probes * n_keys / self._n_bits)
        return fill**self._n_probes

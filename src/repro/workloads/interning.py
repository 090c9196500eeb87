"""Key interning: one bytes object per distinct key.

The workload generators draw the same hot keys over and over — a zipfian
0.99 run of 10^6 requests touches a few thousand keys for the bulk of its
traffic — yet the stream formerly re-formatted and re-encoded
``"user%012d" % index`` for every draw. Interning memoizes index ->
key-bytes so each distinct key is built exactly once and every later
occurrence is the *same* ``bytes`` object.

Identity-stable keys speed up the whole engine, not just generation:
CPython caches a ``bytes`` object's hash in-object, so memtable / row
cache / tracker dict operations hash each hot key once for the life of
the run, and equality checks on dict probes short-circuit on pointer
identity. The wire format is untouched — blocks still store the raw key
bytes — which is what keeps simulated results bit-identical.
"""

from __future__ import annotations


class KeyInterner:
    """Memoizes ``index -> key bytes`` for one fixed key format.

    The table is a list indexed by key index (key spaces are dense
    ``0..n-1``): one pointer per slot on top of the key bytes. An index
    at or past ``max_size`` (or a negative one) is formatted on the fly
    and not stored — correct, just not identity-stable — so one huge
    index cannot allocate a huge list.
    """

    __slots__ = ("_format", "_by_index", "max_size")

    def __init__(self, fmt: str = "user%012d", max_size: int = 1 << 21) -> None:
        if max_size <= 0:
            raise ValueError(f"max_size must be positive: {max_size}")
        self._format = fmt
        self._by_index: list[bytes | None] = []
        self.max_size = max_size

    def __len__(self) -> int:
        """Distinct keys interned."""
        return len(self._by_index) - self._by_index.count(None)

    def key(self, index: int) -> bytes:
        """The canonical bytes object for key ``index``."""
        table = self._by_index
        if 0 <= index < len(table):
            cached = table[index]
            if cached is not None:
                return cached
        cached = (self._format % index).encode("ascii")
        if 0 <= index < self.max_size:
            if index >= len(table):
                table.extend([None] * (index + 1 - len(table)))
            table[index] = cached
        return cached

"""Trace-driven workloads: record and replay request streams.

The paper's Fig. 4 profile derives from RocksDB *production traces* we do
not have; synthetic YCSB streams stand in for them (DESIGN.md). This
module closes the loop for users who *do* have traces: any request
stream can be serialized to a compact line-oriented text format and
replayed later — against a different system, scale, or configuration —
with byte-identical traffic.

Format: one request per line, tab-separated::

    READ\t<hex key>
    UPDATE\t<hex key>\t<hex value>
    INSERT\t<hex key>\t<hex value>
    SCAN\t<hex key>\t<length>
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import CorruptionError
from repro.workloads.ycsb import (
    DEFAULT_BATCH_OPS,
    OP_INSERT,
    OP_READ,
    OP_SCAN,
    OP_UPDATE,
    RequestBatch,
)

#: Trace op names, indexed by op code.
_OP_NAMES = ("READ", "UPDATE", "INSERT", "SCAN")


def dump_trace(batches: Iterable[RequestBatch], path: str | Path) -> int:
    """Write a batch stream to ``path``; returns the request count."""
    count = 0
    with open(path, "w", encoding="ascii") as handle:
        for batch in batches:
            for request in zip(batch.kinds, batch.keys, batch.values, batch.scan_lengths):
                handle.write(format_request(*request) + "\n")
            count += len(batch)
    return count


def format_request(kind: int, key: bytes, value: bytes = b"", scan_length: int = 0) -> str:
    """One request as a trace line."""
    key_hex = key.hex()
    if kind == OP_READ:
        return f"READ\t{key_hex}"
    if kind in (OP_UPDATE, OP_INSERT):
        return f"{_OP_NAMES[kind]}\t{key_hex}\t{value.hex()}"
    if kind == OP_SCAN:
        return f"SCAN\t{key_hex}\t{scan_length}"
    raise ValueError(f"unsupported request kind: {kind}")


def parse_request(line: str, line_number: int = 0) -> tuple[int, bytes, bytes, int]:
    """Parse one trace line into ``(kind, key, value, scan_length)``."""
    parts = line.rstrip("\n").split("\t")
    where = f"trace line {line_number}"
    if not parts or not parts[0]:
        raise CorruptionError(f"{where}: empty record")
    kind_name = parts[0]
    try:
        kind = _OP_NAMES.index(kind_name)
    except ValueError as exc:
        raise CorruptionError(f"{where}: unknown op {kind_name!r}") from exc
    try:
        key = bytes.fromhex(parts[1])
    except (IndexError, ValueError) as exc:
        raise CorruptionError(f"{where}: bad key field") from exc
    if kind == OP_READ:
        if len(parts) != 2:
            raise CorruptionError(f"{where}: READ takes exactly one field")
        return kind, key, b"", 0
    if kind in (OP_UPDATE, OP_INSERT):
        if len(parts) != 3:
            raise CorruptionError(f"{where}: {kind_name} takes key and value")
        try:
            value = bytes.fromhex(parts[2])
        except ValueError as exc:
            raise CorruptionError(f"{where}: bad value field") from exc
        return kind, key, value, 0
    if len(parts) != 3:
        raise CorruptionError(f"{where}: SCAN takes key and length")
    try:
        length = int(parts[2])
    except ValueError as exc:
        raise CorruptionError(f"{where}: bad scan length") from exc
    if length < 0:
        raise CorruptionError(f"{where}: negative scan length")
    return kind, key, b"", length


def load_trace(
    path: str | Path, batch_ops: int = DEFAULT_BATCH_OPS
) -> Iterator[RequestBatch]:
    """Stream a trace file back as :class:`RequestBatch` chunks."""
    with open(path, "r", encoding="ascii") as handle:
        parsed = (
            parse_request(line, line_number)
            for line_number, line in enumerate(handle, start=1)
            if line.strip()
        )
        while chunk := list(islice(parsed, batch_ops)):
            yield RequestBatch(*map(list, zip(*chunk)))


class TraceWorkload:
    """A workload backed by trace files (drop-in for YCSBWorkload).

    ``load_path`` holds the initial data set (INSERT lines); ``run_path``
    the measured stream; an optional ``warmup_path`` is replayed
    unmeasured before the run, mirroring :class:`YCSBWorkload`'s phases.
    """

    def __init__(
        self,
        load_path: str | Path,
        run_path: str | Path,
        *,
        warmup_path: str | Path | None = None,
    ) -> None:
        self._load_path = Path(load_path)
        self._run_path = Path(run_path)
        self._warmup_path = Path(warmup_path) if warmup_path else None

    def load_batches(self) -> Iterator[RequestBatch]:
        return load_trace(self._load_path)

    def warmup_batches(self) -> Iterator[RequestBatch]:
        if self._warmup_path is None:
            return iter(())
        return load_trace(self._warmup_path)

    def run_batches(self) -> Iterator[RequestBatch]:
        return load_trace(self._run_path)

    def total_data_bytes(self) -> int:
        """Serialized size estimate of the load phase (record framing incl.)."""
        total = 0
        for batch in self.load_batches():
            for key, value in zip(batch.keys, batch.values):
                total += len(key) + len(value) + 15
        return total

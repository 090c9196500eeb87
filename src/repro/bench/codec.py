"""Binary codec for run artifacts on the fleet's worker<->router boundary.

Worker processes hand their shard's :class:`~repro.bench.harness.RunResult`
back to the router. Shipping it as a ``to_json()`` dict makes ``pickle``
walk (and the router re-walk) tens of thousands of Python objects per
shard. This module serializes the tree once, on the worker side, with
the interpreter's built-in ``marshal``; the pool moves one ``bytes``.

``decode_tree(encode_tree(tree)) == tree`` exactly, for every JSON-safe
tree: types (``1`` is not ``1.0``, ``True`` is not ``1``), float bits
and dict insertion order all round-trip, so the fleet digests cannot
tell the binary boundary from a dict hand-off.

Wire format: ``MAGIC`` + version byte + u32 payload length +
``marshal.dumps(tree, 2)``. Format 2 is pinned, not ``marshal.version``:
formats 3 and up write back-references, so one list referenced twice
would decode as one shared object where JSON gives two. The length
catches truncation and the trailing bytes ``marshal.loads`` ignores.
"""

from __future__ import annotations

import marshal
from struct import Struct

from repro.errors import CorruptionError

#: Artifact framing: magic + 1-byte wire version.
MAGIC = b"RBC1"
VERSION = 2

_MARSHAL_FORMAT = 2
_U32 = Struct("<I")
_HEADER = MAGIC + bytes([VERSION])


def encode_tree(tree) -> bytes:
    """One JSON-safe tree as u32 length + marshal payload (no magic)."""
    payload = marshal.dumps(tree, _MARSHAL_FORMAT)
    return _U32.pack(len(payload)) + payload


def decode_tree(buf: bytes | memoryview):
    """Decode one tree previously produced by :func:`encode_tree`."""
    if len(buf) < _U32.size or _U32.unpack_from(buf)[0] != len(buf) - _U32.size:
        raise CorruptionError(f"encoded tree length mismatch ({len(buf)} bytes)")
    try:
        return marshal.loads(memoryview(buf)[_U32.size :])
    except (EOFError, ValueError, TypeError) as exc:
        raise CorruptionError(f"corrupt encoded tree: {exc}") from exc


def encode_result(result) -> bytes:
    """Serialize a :class:`~repro.bench.harness.RunResult` for IPC."""
    return _HEADER + encode_tree(result.to_json())


def decode_result(buf: bytes):
    """Rebuild a :class:`~repro.bench.harness.RunResult` from :func:`encode_result`."""
    from repro.bench.harness import RunResult

    if buf[: len(MAGIC)] != MAGIC:
        raise CorruptionError("not an encoded run artifact (bad magic)")
    if len(buf) < len(_HEADER) or buf[len(MAGIC)] != VERSION:
        raise CorruptionError(f"unsupported artifact wire version (this build reads {VERSION})")
    tree = decode_tree(memoryview(buf)[len(_HEADER) :])
    if type(tree) is not dict:
        raise CorruptionError(f"artifact payload is a {type(tree).__name__}, not a dict")
    return RunResult.from_json(tree)

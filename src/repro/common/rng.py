"""Deterministic random-number helpers.

Every stochastic component (workload generators, the mapper's
probabilistic pinning coin flip) takes an explicit seed or
:class:`random.Random` instance so runs are reproducible. This module
centralizes seed derivation so that two components seeded from the same
root seed do not accidentally share a stream.

Seeds hash with the interpreter's built-in SHA-256, not :mod:`hashlib`,
whose OpenSSL costs every engine process ~3.7 MB of RSS for about ten
short strings per run; CPython's :mod:`random` avoids it the same way
("hashlib is pretty heavy to load"). The digest, so every seed, is the same.
"""

from __future__ import annotations

import random

try:
    from _sha256 import sha256  # Python 3.10-3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        from hashlib import sha256


def derive_seed(root_seed: int, *labels: str) -> int:
    """Derive a stable 63-bit child seed from a root seed and labels.

    The derivation hashes ``root_seed`` together with the label path, so
    ``derive_seed(s, "ycsb", "keys")`` and ``derive_seed(s, "mapper")``
    produce independent streams that are stable across runs and platforms.
    ``"/"`` separates the labels, so a label may not contain one.
    """
    h = sha256()
    h.update(str(int(root_seed)).encode("ascii"))
    for label in labels:
        if "/" in label:
            raise ValueError(f"a seed label may not contain '/': {label!r}")
        h.update(b"/")
        h.update(label.encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big") & ((1 << 63) - 1)


def make_rng(root_seed: int, *labels: str) -> random.Random:
    """Create a :class:`random.Random` seeded via :func:`derive_seed`."""
    return random.Random(derive_seed(root_seed, *labels))


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: FNV state after ``data[:-3]``, for inputs longer than 8 bytes: keys
#: are dense decimals, so a thousand share each entry and a hash is one
#: lookup plus three byte steps. Insert-only up to the bound; once full
#: (keys sharing no prefix) a new prefix pays slice + failed lookup + loop.
_PREFIX_STATES: dict[bytes, int] = {}
_PREFIX_STATES_MAX = 4096


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash, used for key scrambling and bloom filters.

    Pure-Python but cheap; chosen because it is deterministic across
    processes (unlike :func:`hash` with string randomization). Remembers
    nothing per input, and neither does the scrambled zipfian generator,
    which hashes each rank it draws; version tags keep the tracker's
    6-bit step table.
    """
    if len(data) <= 8:  # seqno / rank form: no prefix worth sharing
        acc = _FNV_OFFSET
        for byte in data:
            acc = ((acc ^ byte) * _FNV_PRIME) & _MASK64
        return acc
    head = data[:-3]
    acc = _PREFIX_STATES.get(head)
    if acc is None:
        acc = _FNV_OFFSET
        for byte in head:
            acc = ((acc ^ byte) * _FNV_PRIME) & _MASK64
        if len(_PREFIX_STATES) < _PREFIX_STATES_MAX:
            _PREFIX_STATES[head] = acc
    # One reduction for the three steps: a byte only touches the low
    # bits and the product is taken mod 2**64 either way.
    return (
        (((acc ^ data[-3]) * _FNV_PRIME ^ data[-2]) * _FNV_PRIME ^ data[-1]) * _FNV_PRIME
    ) & _MASK64

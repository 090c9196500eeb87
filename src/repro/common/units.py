"""Byte and time unit helpers.

The simulator measures time in **microseconds** (float) and data in
**bytes** (int). These helpers keep magic numbers out of the rest of the
code base and make configuration literals readable, e.g. ``4 * KIB`` or
``seconds(2)``.
"""

from __future__ import annotations

#: Binary byte units.
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: The block size used by data blocks and the device models (a flash page).
BLOCK_SIZE = 4 * KIB


def seconds(value: float) -> float:
    """Convert seconds to simulator microseconds."""
    return float(value) * 1_000_000.0


def format_usec(usec: float) -> str:
    """Render a microsecond duration with an adaptive unit.

    >>> format_usec(2500)
    '2.50 ms'
    """
    if usec < 1_000.0:
        return f"{usec:.1f} us"
    if usec < 1_000_000.0:
        return f"{usec / 1_000.0:.2f} ms"
    return f"{usec / 1_000_000.0:.2f} s"

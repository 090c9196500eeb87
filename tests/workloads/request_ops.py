"""Per-op view of a batch stream, for tests that inspect single requests."""


def ops(batches):
    """Yield ``(code, key, value, scan_length)`` for every request."""
    for batch in batches:
        yield from zip(batch.kinds, batch.keys, batch.values, batch.scan_lengths)

"""Dict oracle: what every key must read back as.

Untraced runs replay the same seeded batches into a plain dict *after*
the measured region and read a seeded sample back through
``db.get``/``db.scan``. Traced runs keep the dict up to date from every
write the lanes commit and check every measured read and scan inline.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from repro.common.rng import make_rng
from repro.lsm.record import RECORD_HEADER_SIZE
from repro.workloads.ycsb import OP_INSERT, OP_UPDATE

VERIFY_KEYS = 5_000
VERIFY_SCANS = 200


class DictOracle:
    """key -> newest value (no workload here deletes)."""

    def __init__(self) -> None:
        self.values: dict[bytes, bytes] = {}
        #: Ascending keys, built on the first scan and kept by insort.
        self._sorted: list[bytes] | None = None

    def put(self, key: bytes, value: bytes) -> None:
        if self._sorted is not None and key not in self.values:
            insort(self._sorted, key)
        self.values[key] = value

    def replay(self, batches) -> None:
        """Apply the writes of a batch stream, in order."""
        put = self.put
        for batch in batches:
            for kind, key, value in zip(batch.kinds, batch.keys, batch.values):
                if kind == OP_UPDATE or kind == OP_INSERT:
                    put(key, value)

    def live_bytes(self) -> int:
        """Encoded size of one live version per key (space-amp denominator)."""
        return sum(
            RECORD_HEADER_SIZE + len(key) + len(value) for key, value in self.values.items()
        )

    def scan(self, start_key: bytes, count: int) -> list[tuple[bytes, bytes]]:
        if self._sorted is None:
            self._sorted = sorted(self.values)
        keys = self._sorted
        lo = bisect_left(keys, start_key)
        return [(key, self.values[key]) for key in keys[lo : lo + count]]


def replay_workload(workload) -> DictOracle:
    """Oracle state after the workload's load, warm-up and run phases."""
    oracle = DictOracle()
    oracle.replay(workload.load_batches())
    oracle.replay(workload.warmup_batches())
    oracle.replay(workload.run_batches())
    return oracle


def verify_sample(db, oracle: DictOracle, seed: int, *, scans: int = 0,
                  max_scan: int = 50) -> tuple[int, int]:
    """Read a seeded sample back through the public API.

    Returns (operations attempted, operations that mismatched or raised).
    """
    rng = make_rng(seed, "perfbench", "verify")
    keys = list(oracle.values)
    attempted = failed = 0
    for key in rng.sample(keys, min(VERIFY_KEYS, len(keys))):
        attempted += 1
        try:
            if db.get(key).value != oracle.values[key]:
                failed += 1
        except Exception:  # a raising op is a failed op, not a crashed benchmark
            failed += 1
    for _ in range(scans):
        start = keys[rng.randrange(len(keys))]
        count = 1 + rng.randrange(max_scan)
        attempted += 1
        try:
            if db.scan(start, count).items != oracle.scan(start, count):
                failed += 1
        except Exception:
            failed += 1
    return attempted, failed


class InlineChecker:
    """Oracle kept current by the write lanes; checks reads as they happen.

    ``observe_write`` is always active (the dict must see load and
    warm-up writes); read and scan checks run only while ``checking``.
    """

    def __init__(self) -> None:
        self.oracle = DictOracle()
        self.checking = False
        self.attempted = 0
        self.failed = 0

    def check_read(self, key: bytes, result) -> None:
        self.attempted += 1
        if result.value != self.oracle.values.get(key):
            self.failed += 1

    def check_scan(self, start_key: bytes, count: int, result) -> None:
        self.attempted += 1
        if result.items != self.oracle.scan(start_key, count):
            self.failed += 1

    def decorators(self, span) -> dict:
        """Target -> decorator map for :meth:`SpanTracer.install`.

        ``span(fn, name)`` wraps the oracle's own work as spans of the
        ``perfbench.oracle`` layer so it is not charged to the program.
        """
        put = span(self.oracle.put, "put")
        check_read = span(self.check_read, "check_read")
        check_scan = span(self.check_scan, "check_scan")

        def read_lane(lane):
            def checked(key):
                result = lane(key)
                if self.checking:
                    check_read(key, result)
                return result

            return checked

        def write_lane(lane):
            def observed(key, value):
                result = lane(key, value)
                put(key, value)
                return result

            return observed

        def scan_method(scan):
            def checked(db, start_key, count, **kwargs):
                result = scan(db, start_key, count, **kwargs)
                if self.checking:
                    check_scan(start_key, count, result)
                return result

            return checked

        return {
            "repro.lsm.db:LsmDB.read_lane": read_lane,
            "repro.core.prismdb:PrismDB.read_lane": read_lane,
            "repro.lsm.db:LsmDB.write_lane": write_lane,
            "repro.lsm.db:LsmDB.scan": scan_method,
        }

"""YCSB-style workload definition and request streams.

A :class:`YCSBWorkload` mirrors the knobs the paper exercises (§6): record
count, operation count, read/update mix, request distribution (Zipfian
with a parameter, "latest", uniform), and value size. The workload yields
a deterministic request stream given a seed, so every system is measured
against byte-identical traffic.

Two stream shapes are offered. The classic per-op iterators
(:meth:`~YCSBWorkload.run_stream` and friends) yield one
:class:`Request` object per operation. The batched form
(:meth:`~YCSBWorkload.run_batches`) yields :class:`RequestBatch` chunks —
parallel arrays of int op codes, key bytes, values and scan
lengths — so the harness's hot loop indexes arrays instead of
constructing and destructuring a frozen dataclass per op. Both shapes
draw from the RNGs in exactly the same order, so they describe the
identical operation sequence; the per-op iterators are in fact thin
adapters over the batches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from repro.common.rng import make_rng
from repro.errors import ConfigError
from repro.workloads.zipfian import LatestGenerator, make_generator


class OpKind(enum.Enum):
    READ = "read"
    UPDATE = "update"
    INSERT = "insert"
    SCAN = "scan"


#: Integer op codes used inside :class:`RequestBatch`; array-friendly
#: stand-ins for :class:`OpKind` on the batched hot path.
OP_READ, OP_UPDATE, OP_INSERT, OP_SCAN = 0, 1, 2, 3
#: code -> OpKind (index = code; ``OP_KINDS.index(kind)`` is the code).
OP_KINDS = (OpKind.READ, OpKind.UPDATE, OpKind.INSERT, OpKind.SCAN)

#: Operations per RequestBatch. Large enough to amortize per-batch
#: bookkeeping, small enough that a batch of 100-byte values stays cache
#: friendly.
DEFAULT_BATCH_OPS = 1024


@dataclass(frozen=True)
class Request:
    """One operation in the stream."""

    kind: OpKind
    key: bytes
    value: bytes = b""
    scan_length: int = 0


class RequestBatch:
    """A chunk of operations as parallel arrays (struct-of-arrays form).

    ``kinds[i]`` is an :data:`OP_READ`-style int code; ``keys[i]`` the
    key; ``values[i]`` the payload (``b""`` for reads/scans);
    ``scan_lengths[i]`` the scan length (0 for non-scans).
    """

    __slots__ = ("kinds", "keys", "values", "scan_lengths")

    def __init__(
        self,
        kinds: list[int],
        keys: list[bytes],
        values: list[bytes],
        scan_lengths: list[int],
    ) -> None:
        self.kinds = kinds
        self.keys = keys
        self.values = values
        self.scan_lengths = scan_lengths

    def __len__(self) -> int:
        return len(self.kinds)

    def requests(self) -> Iterator[Request]:
        """Adapt the arrays back into per-op :class:`Request` objects."""
        op_kinds = OP_KINDS
        for kind, key, value, length in zip(
            self.kinds, self.keys, self.values, self.scan_lengths
        ):
            yield Request(op_kinds[kind], key, value, length)


def batches_from_requests(
    requests: Iterator[Request], batch_ops: int = DEFAULT_BATCH_OPS
) -> Iterator[RequestBatch]:
    """Chunk any per-op Request stream into :class:`RequestBatch` form.

    Lets the batched runner drive workloads that only implement the
    per-op protocol (e.g. replayed traces) through its one hot loop.
    """
    code_of = OP_KINDS.index
    kinds: list[int] = []
    keys: list[bytes] = []
    values: list[bytes] = []
    lengths: list[int] = []
    for request in requests:
        kinds.append(code_of(request.kind))
        keys.append(request.key)
        values.append(request.value)
        lengths.append(request.scan_length)
        if len(kinds) >= batch_ops:
            yield RequestBatch(kinds, keys, values, lengths)
            kinds, keys, values, lengths = [], [], [], []
    if kinds:
        yield RequestBatch(kinds, keys, values, lengths)


@dataclass
class YCSBConfig:
    """Workload parameters (defaults: the paper's 95/5 zipf-0.99 setup)."""

    record_count: int = 100_000
    operation_count: int = 200_000
    read_proportion: float = 0.95
    update_proportion: float = 0.05
    insert_proportion: float = 0.0
    scan_proportion: float = 0.0
    distribution: str = "zipfian"
    zipf_theta: float = 0.99
    value_bytes: int = 100
    max_scan_length: int = 100
    #: Unmeasured operations run before the measured phase so systems
    #: reach steady state (tracker full, hot set settled). The paper's
    #: 50M-request runs amortize warm-up; short simulated runs must warm
    #: up explicitly.
    warmup_operations: int = 0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.record_count <= 0:
            raise ConfigError("record_count must be positive")
        if self.operation_count < 0:
            raise ConfigError("operation_count must be non-negative")
        total = (
            self.read_proportion
            + self.update_proportion
            + self.insert_proportion
            + self.scan_proportion
        )
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"operation proportions must sum to 1.0, got {total}")
        if self.value_bytes <= 0:
            raise ConfigError("value_bytes must be positive")

    @staticmethod
    def read_update(read_pct: int, **overrides) -> "YCSBConfig":
        """Shorthand for the paper's read/update sweeps, e.g. 95 -> 95/5."""
        if not 0 <= read_pct <= 100:
            raise ConfigError(f"read_pct out of range: {read_pct}")
        return YCSBConfig(
            read_proportion=read_pct / 100.0,
            update_proportion=1.0 - read_pct / 100.0,
            **overrides,
        )


class YCSBWorkload:
    """Generates the load phase and the (deterministic) run phase."""

    KEY_FORMAT = "user%012d"

    def __init__(self, config: YCSBConfig) -> None:
        self.config = config
        self._insert_count = config.record_count
        #: Keys are formatted per request and kept by nobody here: the
        #: workload's memory does not grow with the key space.
        self._key_format = self.KEY_FORMAT.encode("ascii")

    def key(self, index: int) -> bytes:
        """Format a key index the way YCSB does."""
        return self._key_format % index

    # ------------------------------------------------------------------
    # Phases (batched form: the canonical generators)
    # ------------------------------------------------------------------
    def load_batches(self, batch_ops: int = DEFAULT_BATCH_OPS) -> Iterator[RequestBatch]:
        """Insert every record once, in key order (YCSB's load phase)."""
        rng = make_rng(self.config.seed, "load")
        fmt = self._key_format
        randbytes = rng.randbytes
        value_bytes = self.config.value_bytes
        remaining = self.config.record_count
        index = 0
        while remaining > 0:
            n = batch_ops if batch_ops < remaining else remaining
            remaining -= n
            keys = [fmt % i for i in range(index, index + n)]
            index += n
            values = [randbytes(value_bytes) for _ in range(n)]
            yield RequestBatch([OP_INSERT] * n, keys, values, [0] * n)

    def warmup_batches(self, batch_ops: int = DEFAULT_BATCH_OPS) -> Iterator[RequestBatch]:
        """Unmeasured steady-state warm-up traffic (same mix, own seed)."""
        return self._op_batches("warmup", self.config.warmup_operations, batch_ops)

    def run_batches(self, batch_ops: int = DEFAULT_BATCH_OPS) -> Iterator[RequestBatch]:
        """The transaction phase: a deterministic mixed request stream."""
        return self._op_batches("ops", self.config.operation_count, batch_ops)

    def _op_batches(
        self, phase: str, count: int, batch_ops: int
    ) -> Iterator[RequestBatch]:
        cfg = self.config
        op_rng = make_rng(cfg.seed, phase, "ops")
        key_rng = make_rng(cfg.seed, phase, "keys")
        value_rng = make_rng(cfg.seed, phase, "values")
        generator = make_generator(cfg.distribution, cfg.record_count, cfg.zipf_theta, key_rng)
        insert_cursor = cfg.record_count
        read_cut = cfg.read_proportion
        update_cut = read_cut + cfg.update_proportion
        insert_cut = update_cut + cfg.insert_proportion
        # Hot locals: every attribute used per op is bound once.
        dice_fn = op_rng.random
        randrange = op_rng.randrange
        randbytes = value_rng.randbytes
        next_index = generator.next_index
        fmt = self._key_format
        value_bytes = cfg.value_bytes
        max_scan = cfg.max_scan_length
        note_insert = (
            generator.note_insert if isinstance(generator, LatestGenerator) else None
        )
        empty = b""
        remaining = count
        while remaining > 0:
            n = batch_ops if batch_ops < remaining else remaining
            remaining -= n
            kinds: list[int] = []
            keys: list[bytes] = []
            values: list[bytes] = []
            lengths: list[int] = []
            append_kind = kinds.append
            append_key = keys.append
            append_value = values.append
            append_length = lengths.append
            for _ in range(n):
                dice = dice_fn()
                if dice < read_cut:
                    index = next_index()
                    append_kind(OP_READ)
                    append_key(fmt % (index if index < insert_cursor else index % insert_cursor))
                    append_value(empty)
                    append_length(0)
                elif dice < update_cut:
                    index = next_index()
                    append_kind(OP_UPDATE)
                    append_key(fmt % (index if index < insert_cursor else index % insert_cursor))
                    append_value(randbytes(value_bytes))
                    append_length(0)
                elif dice < insert_cut:
                    append_kind(OP_INSERT)
                    append_key(fmt % insert_cursor)
                    insert_cursor += 1
                    if note_insert is not None:
                        note_insert()
                    append_value(randbytes(value_bytes))
                    append_length(0)
                else:
                    index = next_index()
                    append_kind(OP_SCAN)
                    append_key(fmt % (index if index < insert_cursor else index % insert_cursor))
                    append_value(empty)
                    append_length(1 + randrange(max_scan))
            yield RequestBatch(kinds, keys, values, lengths)

    # ------------------------------------------------------------------
    # Phases (per-op form: adapters over the batches)
    # ------------------------------------------------------------------
    def load_stream(self) -> Iterator[Request]:
        """Per-op view of :meth:`load_batches` (identical sequence)."""
        for batch in self.load_batches():
            yield from batch.requests()

    def warmup_stream(self) -> Iterator[Request]:
        """Per-op view of :meth:`warmup_batches` (identical sequence)."""
        for batch in self.warmup_batches():
            yield from batch.requests()

    def run_stream(self) -> Iterator[Request]:
        """Per-op view of :meth:`run_batches` (identical sequence)."""
        for batch in self.run_batches():
            yield from batch.requests()

    def total_data_bytes(self) -> int:
        """Approximate serialized size of the loaded data set."""
        key_bytes = len(self.key(0))
        # Record framing overhead: header (15 B) per entry.
        return self.config.record_count * (key_bytes + self.config.value_bytes + 15)

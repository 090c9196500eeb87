"""Storage device models.

Each physical device from the paper's testbed (Table 1) is described by a
:class:`DeviceSpec` — its 4 KB random-read latency, program latency,
sequential bandwidth, cost per GB and program/erase endurance — and
instantiated as a :class:`Device` bound to a simulated clock.

A :class:`Device` is the only place simulated I/O time is produced. Every
block the engine touches is charged here, and the device also models
foreground/background interference: compaction and migration traffic is
queued as a background byte backlog that drains at the device's write
bandwidth, and foreground accesses that arrive while a backlog exists pay
a queueing penalty proportional to the backlog's remaining drain time.
That penalty is what reproduces the paper's observations that (a) Mutant's
whole-file migrations spike read tails and (b) PrismDB's reduced
compaction I/O (Fig. 12) translates into higher foreground throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.common.clock import SimClock
from repro.common.units import BLOCK_SIZE, GIB, MIB
from repro.errors import ConfigError
from repro.obs.attribution import attribute


@dataclass(frozen=True)
class DeviceSpec:
    """Immutable description of one storage technology.

    Latencies are for a single 4 KB access; bandwidths apply to the
    streaming portion of larger transfers. ``pe_cycles`` is the number of
    full-capacity program/erase cycles the medium tolerates (Table 1);
    ``cost_per_gb`` is in dollars.
    """

    name: str
    read_latency_usec: float
    write_latency_usec: float
    read_bandwidth_bps: float
    write_bandwidth_bps: float
    cost_per_gb: float
    pe_cycles: int
    #: Steady-state write bandwidth once any SLC-style write cache is
    #: exhausted. Dense flash sustains far less than its burst rate (the
    #: Intel 660p QLC drops to ~100 MB/s); Optane has no such cliff.
    #: Background (compaction/migration) backlogs drain at this rate.
    sustained_write_bandwidth_bps: float = 0.0

    def __post_init__(self) -> None:
        if self.read_latency_usec < 0 or self.write_latency_usec < 0:
            raise ConfigError(f"{self.name}: latencies must be non-negative")
        if self.read_bandwidth_bps <= 0 or self.write_bandwidth_bps <= 0:
            raise ConfigError(f"{self.name}: bandwidths must be positive")
        if self.pe_cycles <= 0:
            raise ConfigError(f"{self.name}: pe_cycles must be positive")
        if self.sustained_write_bandwidth_bps <= 0:
            object.__setattr__(
                self, "sustained_write_bandwidth_bps", self.write_bandwidth_bps
            )

    def read_time_usec(self, n_bytes: int) -> float:
        """Service time of one read of ``n_bytes`` (no queueing).

        ``read_latency_usec`` is the measured total for a 4 KB random
        read (Table 1), so it already covers the first page's transfer;
        only bytes beyond the first block add streaming time.
        """
        extra = max(0, n_bytes - BLOCK_SIZE)
        transfer = extra / self.read_bandwidth_bps * 1_000_000.0
        return self.read_latency_usec + transfer

    def write_time_usec(self, n_bytes: int) -> float:
        """Service time of one write of ``n_bytes`` (no queueing).

        LSM writes are large and sequential, so the bandwidth term
        dominates; the per-access program latency is paid once.
        """
        transfer = n_bytes / self.write_bandwidth_bps * 1_000_000.0
        return self.write_latency_usec + transfer


def _bps(mb_per_s: float) -> float:
    return mb_per_s * MIB


#: Table 1 of the paper: Optane SSD (Intel 900p). 26 us 4 KB random read.
NVM_SPEC = DeviceSpec(
    name="NVM",
    read_latency_usec=26.0,
    write_latency_usec=12.0,
    read_bandwidth_bps=_bps(2500.0),
    write_bandwidth_bps=_bps(2000.0),
    cost_per_gb=1.30,
    pe_cycles=18_000,
)

#: Table 1: TLC flash (Intel 760p). 195 us 4 KB random read. The write
#: bandwidth preserves the paper's 121:216 NVM:TLC large-write ratio.
TLC_SPEC = DeviceSpec(
    name="TLC",
    read_latency_usec=195.0,
    write_latency_usec=65.0,
    read_bandwidth_bps=_bps(1500.0),
    write_bandwidth_bps=_bps(1120.0),
    cost_per_gb=0.40,
    pe_cycles=540,
    sustained_write_bandwidth_bps=_bps(300.0),
)

#: Table 1: QLC flash (Intel 660p). 391 us 4 KB random read; write
#: bandwidth preserves the 121:456 NVM:QLC ratio.
QLC_SPEC = DeviceSpec(
    name="QLC",
    read_latency_usec=391.0,
    write_latency_usec=130.0,
    read_bandwidth_bps=_bps(800.0),
    write_bandwidth_bps=_bps(530.0),
    cost_per_gb=0.10,
    pe_cycles=200,
    sustained_write_bandwidth_bps=_bps(100.0),
)

#: DRAM, used for the block cache and memtable reads. Endurance is
#: effectively unlimited; the large pe_cycles value keeps the wear math
#: uniform.
DRAM_SPEC = DeviceSpec(
    name="DRAM",
    read_latency_usec=0.2,
    write_latency_usec=0.2,
    read_bandwidth_bps=_bps(20_000.0),
    write_bandwidth_bps=_bps(20_000.0),
    cost_per_gb=5.0,
    pe_cycles=10**9,
)

#: Registry keyed by the single-letter code used in Fig. 4's five-tuples.
SPECS_BY_CODE = {"N": NVM_SPEC, "T": TLC_SPEC, "Q": QLC_SPEC, "D": DRAM_SPEC}
SPECS_BY_NAME = {spec.name: spec for spec in SPECS_BY_CODE.values()}


@dataclass
class DeviceStats:
    """Cumulative I/O accounting of one device instance."""

    bytes_read_foreground: int = 0
    bytes_read_background: int = 0
    bytes_written_foreground: int = 0
    bytes_written_background: int = 0
    #: WAL appends that rode in a group commit: the log charges their
    #: transfer itself, not through :meth:`Device.write`, so they count
    #: no access, busy time or ``device.write_bytes`` series.
    bytes_written_grouped: int = 0
    reads: int = 0
    writes: int = 0
    busy_usec: float = 0.0

    @property
    def bytes_read(self) -> int:
        return self.bytes_read_foreground + self.bytes_read_background

    @property
    def bytes_written(self) -> int:
        return (
            self.bytes_written_foreground
            + self.bytes_written_background
            + self.bytes_written_grouped
        )


#: The queueing model's constants, shared by every :class:`Device` and
#: the fleet's pooled devices. ``BACKGROUND_SHARE`` is the fraction of
#: write bandwidth a device dedicates to draining background
#: (compaction/migration) I/O while foreground traffic is present; the
#: rest of the backlog falls on foreground accesses as a penalty of
#: ``INTERFERENCE_FACTOR`` times its drain time, at most
#: ``MAX_PENALTY_USEC``.
BACKGROUND_SHARE = 0.6
INTERFERENCE_FACTOR = 0.35
MAX_PENALTY_USEC = 5_000.0


def queue_penalty_usec(backlog_bytes: float, drain_bps: float) -> float:
    """Extra latency a foreground access pays behind ``backlog_bytes``."""
    if backlog_bytes <= 0:
        return 0.0
    drain_usec = backlog_bytes / drain_bps * 1_000_000.0
    return min(MAX_PENALTY_USEC, drain_usec * INTERFERENCE_FACTOR)


class Device:
    """A device instance: a spec plus capacity, wear and a backlog queue."""

    def __init__(self, spec: DeviceSpec, capacity_bytes: int, clock: SimClock) -> None:
        if capacity_bytes <= 0:
            raise ConfigError(f"device capacity must be positive: {capacity_bytes}")
        self.spec = spec
        self.capacity_bytes = capacity_bytes
        #: Attribution label for this device's latency; the owning
        #: :class:`~repro.storage.tier.StorageTier` overwrites it with
        #: the tier name (e.g. ``qlc-L4``) so per-request breakdowns name
        #: the tier, not just the technology.
        self.tier_name = spec.name.lower()
        self.stats = DeviceStats()
        self._clock = clock
        self._backlog_bytes = 0.0
        self._last_drain_usec = clock.now
        self._queue_penalty = None

    def bind_observability(self, registry, *, tier: str) -> None:
        """Register this device's ``device.*`` series in ``registry``.

        The byte, access and busy-time series read :attr:`stats`, the
        device's lifetime tally, so after :meth:`LsmDB.reopen` the new
        instance's series continue from the shared device's totals.
        Only the queue-penalty histogram is pushed, from here on.
        """
        stats = self.stats
        for name, prefix in (("read_bytes", "bytes_read_"), ("write_bytes", "bytes_written_")):
            for mode in ("foreground", "background"):
                read = partial(getattr, stats, prefix + mode)
                registry.view(f"device.{name}", read, tier=tier, mode=mode)
        for name in ("reads", "writes", "busy_usec"):
            registry.view(f"device.{name}", partial(getattr, stats, name), tier=tier)
        self._queue_penalty = registry.histogram("device.queue_penalty_usec", tier=tier)

    # ------------------------------------------------------------------
    # Background backlog
    # ------------------------------------------------------------------
    def _drain_backlog(self) -> None:
        """Retire background bytes written since the last drain."""
        now = self._clock.now
        elapsed = now - self._last_drain_usec
        self._last_drain_usec = now
        if elapsed <= 0 or self._backlog_bytes <= 0:
            return
        drain_rate = self.spec.sustained_write_bandwidth_bps * BACKGROUND_SHARE
        drained = elapsed / 1_000_000.0 * drain_rate
        self._backlog_bytes = max(0.0, self._backlog_bytes - drained)

    @property
    def backlog_bytes(self) -> float:
        """Current background backlog after draining to the present."""
        self._drain_backlog()
        return self._backlog_bytes

    def queue_penalty_usec(self) -> float:
        """Extra latency a foreground access pays due to background work."""
        return queue_penalty_usec(
            self.backlog_bytes, self.spec.sustained_write_bandwidth_bps
        )

    # ------------------------------------------------------------------
    # I/O charging
    # ------------------------------------------------------------------
    def _charge_foreground(self, component: str, base: float) -> float:
        """Latency of a foreground access of service time ``base``: adds
        and observes the queueing penalty, and attributes ``base`` to
        ``(component, tier)`` and the penalty to ``compact_wait``."""
        penalty = queue_penalty_usec(
            self.backlog_bytes, self.spec.sustained_write_bandwidth_bps
        )
        if self._queue_penalty is not None:
            self._queue_penalty.observe(penalty)
        attribute(component, self.tier_name, base)
        if penalty:
            attribute("compact_wait", self.tier_name, penalty)
        return base + penalty

    def read(self, n_bytes: int, *, foreground: bool = True, component: str = "io") -> float:
        """Charge a read and return its simulated latency in usec.

        A foreground read's service time is attributed to ``component``
        (``filter``, ``index``, ``data``) on this tier, and its queueing
        penalty — time spent behind background compaction/migration
        backlog — to ``compact_wait``.
        """
        if n_bytes < 0:
            raise ValueError(f"negative read size: {n_bytes}")
        stats = self.stats
        stats.reads += 1
        base = self.spec.read_time_usec(n_bytes)
        stats.busy_usec += base
        if foreground:
            stats.bytes_read_foreground += n_bytes
            return self._charge_foreground(component, base)
        stats.bytes_read_background += n_bytes
        # Background reads contend like background writes do: they
        # occupy the device, so they join the backlog at read cost
        # converted to equivalent write-bandwidth bytes.
        self._drain_backlog()
        self._backlog_bytes += n_bytes * 0.5
        return base

    def write(self, n_bytes: int, *, foreground: bool = True, component: str = "io") -> float:
        """Charge a write and return its simulated latency in usec.

        Foreground writes are charged like foreground reads. Background
        writes (compactions, migrations) return 0 latency to the caller —
        they happen off the critical path — but enqueue their bytes in
        the backlog, which slows later foreground I/O.
        """
        if n_bytes < 0:
            raise ValueError(f"negative write size: {n_bytes}")
        stats = self.stats
        stats.writes += 1
        base = self.spec.write_time_usec(n_bytes)
        stats.busy_usec += base
        if foreground:
            stats.bytes_written_foreground += n_bytes
            return self._charge_foreground(component, base)
        stats.bytes_written_background += n_bytes
        self._drain_backlog()
        self._backlog_bytes += n_bytes
        return 0.0

    # ------------------------------------------------------------------
    # Wear / endurance
    # ------------------------------------------------------------------
    @property
    def wear_cycles(self) -> float:
        """Full-capacity program/erase cycles consumed so far."""
        return self.stats.bytes_written / self.capacity_bytes

    def cost_dollars(self) -> float:
        """Purchase cost of this device instance at its capacity."""
        return self.capacity_bytes / GIB * self.spec.cost_per_gb

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Device({self.spec.name}, cap={self.capacity_bytes / GIB:.2f}GiB, "
            f"wear={self.wear_cycles:.2f}cyc)"
        )


def fio_random_read_latency(spec: DeviceSpec, *, block_bytes: int = BLOCK_SIZE) -> float:
    """The fio-style 4 KB random-read figure for Table 1 regeneration."""
    return spec.read_time_usec(block_bytes)


def fio_large_write_latency(spec: DeviceSpec, *, chunk_bytes: int = 64 * MIB, io_bytes: int = 256 * 1024) -> float:
    """Average per-I/O latency while streaming a large sequential write.

    Mirrors the paper's Table 1 "Avg Write Latency (64 MB)" measurement:
    the mean time per ``io_bytes`` submission while writing
    ``chunk_bytes`` sequentially. With the default 256 KiB submissions the
    model lands within a few percent of the paper's 121/216/456 us column.
    """
    total = spec.write_time_usec(chunk_bytes)
    ios = max(1, chunk_bytes // io_bytes)
    return total / ios

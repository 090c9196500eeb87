"""PrismDB: the read-aware LSM key-value store (§4-§5).

:class:`PrismDB` is the engine with the paper's three components wired
in: the *tracker* observes every read, the *mapper* maintains the CLOCK
distribution, and the *placer* (router + picker) drives pinned
compactions. Reads additionally pay the tracker-insert overhead the
paper microbenchmarks (< 2 us), which is why very skewed, fully-cached
workloads slightly favour vanilla RocksDB (Fig. 11's zipf >= 1.4 regime).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mapper import ClockDistributionMapper
from repro.core.placer import LowestScorePicker, ReadAwareRouter
from repro.core.tracker import ClockTracker
from repro.errors import ConfigError
from repro.lsm.db import LsmDB, ReadResult
from repro.lsm.layout import StorageLayout
from repro.lsm.options import DBOptions
from repro.obs.attribution import attribute

#: Per-read CPU cost of the tracker insertion on the read path; the
#: paper microbenchmarks it at < 2 us (§6.5).
TRACKER_OVERHEAD_USEC = 1.5


@dataclass
class PrismOptions:
    """PrismDB-specific knobs (defaults follow §6's configuration)."""

    #: Number of keys the tracker holds; the paper uses 10 % of the
    #: database key space.
    tracker_capacity: int = 10_000
    #: Fraction of tracked keys to pin during compactions.
    pinning_threshold: float = 0.10
    #: CLOCK bits per key (2 bits -> values 0..3).
    clock_bits: int = 2
    #: Whether pinning waits for the tracker to fill (§4.2).
    require_full_tracker: bool = True
    #: Enable up-compaction (keys rising from the lower level, §4.3).
    #: Disable for the retention-only ablation.
    up_compaction: bool = True
    #: Select SST files by lowest popularity score (§4.3). Disable for
    #: the selection ablation (falls back to RocksDB's largest-file rule).
    score_based_selection: bool = True

    def __post_init__(self) -> None:
        if self.tracker_capacity <= 0:
            raise ConfigError("tracker_capacity must be positive")
        if not 0.0 <= self.pinning_threshold <= 1.0:
            raise ConfigError("pinning_threshold must be in [0, 1]")

    @staticmethod
    def for_keyspace(n_keys: int, **overrides) -> "PrismOptions":
        """The paper's sizing rule: tracker = 10 % of the key space."""
        capacity = max(1, n_keys // 10)
        return PrismOptions(tracker_capacity=capacity, **overrides)


class PrismDB(LsmDB):
    """Read-aware LSM tree over heterogeneous storage."""

    def __init__(
        self,
        layout: StorageLayout,
        options: DBOptions | None = None,
        prism_options: PrismOptions | None = None,
        **kwargs,
    ) -> None:
        options = options or DBOptions()
        self.prism_options = prism_options or PrismOptions()
        self.mapper = ClockDistributionMapper(
            max_clock=(1 << self.prism_options.clock_bits) - 1
        )
        self.tracker = ClockTracker(
            self.prism_options.tracker_capacity,
            self.mapper,
            clock_bits=self.prism_options.clock_bits,
        )
        self.placer = ReadAwareRouter(
            self.tracker,
            self.mapper,
            pinning_threshold=self.prism_options.pinning_threshold,
            require_full_tracker=self.prism_options.require_full_tracker,
            allow_pull_up=self.prism_options.up_compaction,
        )
        kwargs.setdefault("name", "prismdb")
        if self.prism_options.score_based_selection:
            # §4.3 lowest-score picking is PrismDB's default; an injected
            # picker overrides it.
            kwargs.setdefault("picker", LowestScorePicker())
        super().__init__(
            layout,
            options,
            router=self.placer,
            **kwargs,
        )
        self.tracker.bind_observability(self.metrics)
        # Every tracked read is exactly one insert, version hit or mismatch.
        stats = self.tracker.stats
        self.metrics.view(
            "prism.tracked_reads",
            lambda: stats.inserts + stats.version_hits + stats.version_mismatches,
        )

    @classmethod
    def create(
        cls,
        layout_code: str = "NNNTQ",
        options: DBOptions | None = None,
        prism_options: PrismOptions | None = None,
        **kwargs,
    ) -> "PrismDB":
        """Build a PrismDB with a layout from a code string."""
        from repro.common.clock import SimClock
        from repro.lsm.layout import build_layout

        options = options or DBOptions()
        clock = kwargs.pop("clock", None) or SimClock()
        layout = build_layout(layout_code, options, clock)
        return cls(layout, options, prism_options, clock=clock, **kwargs)

    def _fresh_instance(self) -> "PrismDB":
        """Restart: tracker/mapper/placer are volatile and start empty."""
        return type(self)(
            self.layout,
            self.options,
            self.prism_options,
            clock=self.clock,
            backend=self.backend,
            name=self.name,
        )

    def read_lane(self):
        """The base read lane plus the tracker tail (§5, Fig. 8)."""
        base = self._build_read_lane()
        tracker_overhead = TRACKER_OVERHEAD_USEC
        on_read = self.tracker.on_read
        run_evictions = self.tracker.run_evictions

        def lookup(user_key):
            result = base(user_key)
            # Tracker insertion sits on the read critical path; eviction is
            # deferred to the "background" sweep right after.
            latency = result.latency_usec + tracker_overhead
            attribute("tracker", "-", tracker_overhead)
            on_read(user_key, result.seqno or 0)
            run_evictions()
            # Direct construction instead of dataclasses.replace(): replace()
            # re-walks the field list on every read.
            return ReadResult(result.value, latency, result.served_by, result.seqno)

        return lookup

"""Storage tiers: a device instance plus capacity bookkeeping.

A tier is one addressable pool of storage (e.g. "the NVM holding L0-L2" in
the NNNTQ configuration). Files allocate space from a tier; the tier
refuses allocations beyond its capacity (the paper pins LSM levels to
fixed allocations by setting the pending-compaction byte limit to zero, so
capacity is a hard constraint here as well, with a small slack factor for
in-flight compaction outputs).
"""

from __future__ import annotations

from repro.common.clock import SimClock
from repro.errors import CapacityError, ConfigError
from repro.storage.device import Device, DeviceSpec

#: The hard allocation limit over a tier's capacity: room for a
#: compaction that holds both its inputs and its outputs.
SLACK_FACTOR = 2.0


class StorageTier:
    """One capacity-limited pool backed by a single device technology."""

    def __init__(
        self,
        name: str,
        spec: DeviceSpec,
        capacity_bytes: int,
        clock: SimClock,
        *,
        nominal_bytes: int | None = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ConfigError(f"tier {name}: capacity must be positive")
        self.name = name
        self.device = Device(spec, capacity_bytes, clock)
        # Per-request latency attribution names the tier, not the raw
        # technology, so "nvm-L0-L2" and a second NVM tier stay distinct.
        self.device.tier_name = name
        self.capacity_bytes = capacity_bytes
        #: The intended steady-state data volume (sum of level targets);
        #: ``capacity_bytes`` adds headroom for compaction transients.
        #: Placement policies (Mutant's optimizer) budget against this.
        self.nominal_bytes = nominal_bytes if nominal_bytes is not None else capacity_bytes
        self._used_bytes = 0

    @property
    def spec(self) -> DeviceSpec:
        return self.device.spec

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    @property
    def utilization(self) -> float:
        """Used fraction of nominal capacity (can exceed 1.0 within slack)."""
        return self._used_bytes / self.nominal_bytes

    def allocate(self, n_bytes: int) -> None:
        """Reserve ``n_bytes``; raises :class:`CapacityError` past slack.

        ``SLACK_FACTOR`` tolerates transient overshoot while a compaction
        holds both its inputs and outputs; steady-state usage above
        nominal capacity indicates a mis-sized level layout and is
        surfaced via :attr:`utilization`.
        """
        if n_bytes < 0:
            raise ValueError(f"negative allocation: {n_bytes}")
        hard_limit = int(self.capacity_bytes * SLACK_FACTOR)
        if self._used_bytes + n_bytes > hard_limit:
            raise CapacityError(
                f"tier {self.name}: allocating {n_bytes} B would exceed "
                f"hard limit {hard_limit} B (used {self._used_bytes} B)"
            )
        self._used_bytes += n_bytes

    def release(self, n_bytes: int) -> None:
        """Return ``n_bytes`` to the pool (file deletion)."""
        if n_bytes < 0:
            raise ValueError(f"negative release: {n_bytes}")
        if n_bytes > self._used_bytes:
            raise ValueError(
                f"tier {self.name}: releasing {n_bytes} B but only "
                f"{self._used_bytes} B allocated"
            )
        self._used_bytes -= n_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StorageTier({self.name}, {self.spec.name}, "
            f"{self._used_bytes}/{self.capacity_bytes} B)"
        )

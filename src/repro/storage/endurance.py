"""Endurance provisioning math (the paper's 3-year lifetime rule).

The paper sizes each storage technology so it survives a minimum device
lifetime (3 years) at the workload's write rate: if a level's write
traffic would wear out the nominally-sized device sooner, spare capacity
is added until total program/erase wear over the lifetime fits within the
device's cycle budget — the same over-provisioning principle enterprise
SSDs use. This module implements that rule; the Fig. 4 / Table 3 cost
model builds on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import GIB
from repro.storage.device import DeviceSpec

#: The paper's minimum device lifetime: three years, in seconds.
DEFAULT_LIFETIME_SECONDS = 3 * 365 * 24 * 3600


@dataclass(frozen=True)
class ProvisioningResult:
    """Outcome of provisioning one level/tier on one device technology."""

    spec_name: str
    data_bytes: int
    provisioned_bytes: int
    cost_dollars: float
    lifetime_limited: bool


def provision_capacity(
    spec: DeviceSpec,
    data_bytes: int,
    write_bytes_per_second: float,
    *,
    lifetime_seconds: float = DEFAULT_LIFETIME_SECONDS,
) -> ProvisioningResult:
    """Capacity and cost to hold ``data_bytes`` for ``lifetime_seconds``.

    The device must absorb ``write_bytes_per_second * lifetime_seconds``
    total program traffic; with ``pe_cycles`` full-capacity cycles
    available, the minimum endurance-safe capacity is that total divided
    by the cycle budget. The provisioned capacity is the larger of the
    data size and the endurance minimum.
    """
    if data_bytes < 0:
        raise ValueError(f"negative data size: {data_bytes}")
    if write_bytes_per_second < 0:
        raise ValueError(f"negative write rate: {write_bytes_per_second}")
    lifetime_writes = write_bytes_per_second * lifetime_seconds
    endurance_min = lifetime_writes / spec.pe_cycles
    provisioned = max(float(data_bytes), endurance_min)
    cost = provisioned / GIB * spec.cost_per_gb
    return ProvisioningResult(
        spec_name=spec.name,
        data_bytes=data_bytes,
        provisioned_bytes=int(round(provisioned)),
        cost_dollars=cost,
        lifetime_limited=endurance_min > data_bytes,
    )


def device_lifetime_seconds(
    spec: DeviceSpec,
    capacity_bytes: int,
    write_bytes_per_second: float,
) -> float:
    """How long a device of ``capacity_bytes`` lasts at a given write rate.

    Returns ``inf`` when there is no write traffic.
    """
    if capacity_bytes <= 0:
        raise ValueError(f"capacity must be positive: {capacity_bytes}")
    if write_bytes_per_second <= 0:
        return float("inf")
    total_write_budget = capacity_bytes * spec.pe_cycles
    return total_write_budget / write_bytes_per_second

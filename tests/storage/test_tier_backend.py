"""Tests for storage tiers and the simulated file backend."""

import pytest

from repro.common import GIB, MIB, SimClock
from repro.errors import CapacityError, ConfigError, StorageError
from repro.storage import NVM_SPEC, QLC_SPEC, StorageBackend, StorageTier


def make_tier(name="nvm", spec=NVM_SPEC, capacity=64 * MIB, clock=None, **kwargs):
    return StorageTier(name, spec, capacity, clock or SimClock(), **kwargs)


class TestStorageTier:
    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            make_tier(capacity=0)

    def test_allocation_accounting(self):
        tier = make_tier(capacity=10 * MIB)
        tier.allocate(4 * MIB)
        assert tier.used_bytes == 4 * MIB
        assert tier.capacity_bytes - tier.used_bytes == 6 * MIB
        assert tier.utilization == pytest.approx(0.4)

    def test_release_returns_capacity(self):
        tier = make_tier(capacity=10 * MIB)
        tier.allocate(4 * MIB)
        tier.release(4 * MIB)
        assert tier.used_bytes == 0

    def test_release_more_than_allocated_fails(self):
        tier = make_tier()
        with pytest.raises(ValueError):
            tier.release(1)

    def test_slack_allows_transient_overshoot(self):
        tier = make_tier(capacity=10 * MIB)
        tier.allocate(15 * MIB)  # above nominal, below slack
        assert tier.utilization > 1.0

    def test_hard_limit_enforced(self):
        tier = make_tier(capacity=10 * MIB)
        tier.allocate(20 * MIB)  # exactly at the limit
        with pytest.raises(CapacityError):
            tier.allocate(1)

    def test_negative_amounts_rejected(self):
        tier = make_tier()
        with pytest.raises(ValueError):
            tier.allocate(-1)
        with pytest.raises(ValueError):
            tier.release(-1)


class TestStorageBackend:
    def setup_method(self):
        self.clock = SimClock()
        self.backend = StorageBackend(self.clock)
        self.nvm = make_tier("nvm", NVM_SPEC, clock=self.clock)
        self.qlc = make_tier("qlc", QLC_SPEC, capacity=1 * GIB, clock=self.clock)

    def test_create_and_read_round_trip(self):
        payload = bytes(range(256)) * 16
        file = self.backend.create_file(self.nvm, payload)
        data, latency = self.backend.read(file, 0, len(payload))
        assert data == payload
        assert latency > 0

    def test_create_allocates_tier_capacity(self):
        file = self.backend.create_file(self.nvm, b"x" * 1000)
        assert self.nvm.used_bytes == 1000
        self.backend.delete_file(file)
        assert self.nvm.used_bytes == 0

    def test_partial_read(self):
        file = self.backend.create_file(self.nvm, b"0123456789")
        data, _ = self.backend.read(file, 3, 4)
        assert data == b"3456"

    def test_out_of_bounds_read_fails(self):
        file = self.backend.create_file(self.nvm, b"abc")
        with pytest.raises(StorageError):
            self.backend.read(file, 0, 4)
        with pytest.raises(StorageError):
            self.backend.read(file, -1, 1)

    def test_read_deleted_file_fails(self):
        file = self.backend.create_file(self.nvm, b"abc")
        self.backend.delete_file(file)
        with pytest.raises(StorageError):
            self.backend.read(file, 0, 1)

    def test_delete_is_idempotent(self):
        file = self.backend.create_file(self.nvm, b"abc")
        self.backend.delete_file(file)
        self.backend.delete_file(file)
        assert self.backend.stats.files_deleted == 1

    def test_create_file_is_background_io(self):
        self.backend.create_file(self.nvm, b"x" * 4096)
        stats = self.nvm.device.stats
        assert stats.bytes_written_background == 4096
        assert stats.bytes_written_foreground == 0
        assert self.nvm.device.backlog_bytes > 0  # queued behind later foreground I/O

    def test_stats_tally_by_tier(self):
        file = self.backend.create_file(self.nvm, b"x" * 100)
        self.backend.read(file, 0, 50)
        assert self.nvm.device.stats.bytes_written == 100
        assert self.nvm.device.stats.bytes_read == 50
        assert self.nvm.device.stats.bytes_written_background == 100
        assert self.nvm.device.stats.bytes_read_foreground == 50
        assert self.qlc.device.stats.bytes_written == self.qlc.device.stats.bytes_read == 0

    def test_live_files_counter(self):
        assert self.backend.live_files == 0
        file = self.backend.create_file(self.nvm, b"a")
        assert self.backend.live_files == 1
        self.backend.delete_file(file)
        assert self.backend.live_files == 0


class TestMigration:
    def setup_method(self):
        self.clock = SimClock()
        self.backend = StorageBackend(self.clock)
        self.nvm = make_tier("nvm", NVM_SPEC, clock=self.clock)
        self.qlc = make_tier("qlc", QLC_SPEC, capacity=1 * GIB, clock=self.clock)

    def test_migration_moves_capacity(self):
        file = self.backend.create_file(self.nvm, b"x" * MIB)
        self.backend.migrate_file(file, self.qlc)
        assert file.tier is self.qlc
        assert self.nvm.used_bytes == 0
        assert self.qlc.used_bytes == MIB

    def test_migration_to_same_tier_is_noop(self):
        file = self.backend.create_file(self.nvm, b"x" * 100)
        assert self.backend.migrate_file(file, self.nvm) == 0.0
        assert self.backend.stats.migrations == 0

    def test_migration_locks_file_and_reads_stall(self):
        file = self.backend.create_file(self.nvm, b"x" * MIB)
        lock_duration = self.backend.migrate_file(file, self.qlc)
        assert lock_duration > 0
        _, stalled = self.backend.read(file, 0, 4096)
        unlocked_cost = self.qlc.spec.read_time_usec(4096)
        assert stalled >= lock_duration  # includes the stall
        assert stalled > unlocked_cost

    def test_lock_expires_with_clock(self):
        file = self.backend.create_file(self.nvm, b"x" * MIB)
        lock_duration = self.backend.migrate_file(file, self.qlc)
        stalls_during = self.backend.stats.lock_stalls
        self.clock.advance(lock_duration + 1.0)
        self.backend.read(file, 0, 4096)
        # Queue penalty from the migration's background I/O may remain,
        # but the hard lock stall must be gone.
        assert self.backend.stats.lock_stalls == stalls_during

    def test_migrate_deleted_file_fails(self):
        file = self.backend.create_file(self.nvm, b"x")
        self.backend.delete_file(file)
        with pytest.raises(StorageError):
            self.backend.migrate_file(file, self.qlc)

    def test_migration_stats(self):
        file = self.backend.create_file(self.nvm, b"x" * 1000)
        self.backend.migrate_file(file, self.qlc)
        assert self.backend.stats.migrations == 1
        assert self.backend.stats.migration_bytes == 1000

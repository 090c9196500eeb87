"""Properties of the background-I/O interference model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import GIB, MIB, SimClock
from repro.storage import NVM_SPEC, QLC_SPEC, TLC_SPEC, Device
from repro.storage.device import MAX_PENALTY_USEC


class TestBacklogDynamics:
    def test_penalty_grows_with_backlog(self):
        clock = SimClock()
        dev = Device(QLC_SPEC, GIB, clock)
        penalties = []
        for _ in range(4):
            dev.write(256 * 1024, foreground=False)  # small enough to stay under the cap
            penalties.append(dev.queue_penalty_usec())
        assert penalties == sorted(penalties)
        assert penalties[-1] > penalties[0]

    def test_penalty_saturates_at_cap(self):
        clock = SimClock()
        dev = Device(QLC_SPEC, GIB, clock)
        dev.write(64 * MIB, foreground=False)
        assert dev.queue_penalty_usec() == pytest.approx(MAX_PENALTY_USEC)

    def test_sustained_bandwidth_slows_qlc_drain(self):
        # The same backlog drains much faster on NVM than QLC because
        # QLC's sustained write bandwidth collapses after its SLC cache.
        def drain_time(spec):
            clock = SimClock()
            dev = Device(spec, GIB, clock)
            dev.write(8 * MIB, foreground=False)
            elapsed = 0.0
            while dev.backlog_bytes > 0 and elapsed < 10**9:
                clock.advance(10_000.0)
                elapsed += 10_000.0
            return elapsed

        assert drain_time(QLC_SPEC) > drain_time(TLC_SPEC) > drain_time(NVM_SPEC)

    def test_foreground_write_not_queued_as_backlog(self):
        clock = SimClock()
        dev = Device(NVM_SPEC, GIB, clock)
        dev.write(4 * MIB, foreground=True)
        assert dev.backlog_bytes == 0.0

    @given(st.lists(st.integers(min_value=1, max_value=8 * MIB), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_backlog_conserved(self, writes):
        clock = SimClock()
        dev = Device(QLC_SPEC, GIB, clock)
        for n in writes:
            dev.write(n, foreground=False)
        # Without time passing, the backlog equals everything enqueued.
        assert dev.backlog_bytes == pytest.approx(sum(writes))

    @given(st.floats(min_value=0.0, max_value=1e9))
    @settings(max_examples=30, deadline=None)
    def test_backlog_never_negative(self, advance_usec):
        clock = SimClock()
        dev = Device(QLC_SPEC, GIB, clock)
        dev.write(1 * MIB, foreground=False)
        clock.advance(advance_usec)
        assert dev.backlog_bytes >= 0.0

    def test_penalty_zero_when_idle(self):
        clock = SimClock()
        dev = Device(QLC_SPEC, GIB, clock)
        assert dev.queue_penalty_usec() == 0.0

    def test_background_read_joins_backlog(self):
        clock = SimClock()
        dev = Device(QLC_SPEC, GIB, clock)
        dev.read(4 * MIB, foreground=False)
        assert dev.backlog_bytes > 0.0

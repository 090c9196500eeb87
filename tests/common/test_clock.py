"""Tests for the simulated clock."""

import pytest

from repro.common import SimClock


class TestSimClock:
    def test_starts_at_zero_by_default(self):
        assert SimClock().now == 0.0

    def test_starts_at_given_time(self):
        assert SimClock(5.0).now == 5.0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_advance_moves_forward(self):
        clock = SimClock()
        clock.advance(10.0)
        clock.advance(2.5)
        assert clock.now == 12.5

    def test_advance_returns_new_time(self):
        clock = SimClock(1.0)
        assert clock.advance(4.0) == 5.0

    def test_advance_rejects_negative_delta(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_advance_zero_is_allowed(self):
        clock = SimClock(3.0)
        clock.advance(0.0)
        assert clock.now == 3.0



class TestClockObservers:
    def test_observer_fires_on_advance(self):
        clock = SimClock()
        seen = []
        clock.subscribe(seen.append)
        clock.advance(5.0)
        clock.advance(2.0)
        assert seen == [5.0, 7.0]

    def test_no_fire_when_time_does_not_move(self):
        clock = SimClock(10.0)
        seen = []
        clock.subscribe(seen.append)
        clock.advance(0.0)
        assert seen == []

    def test_unsubscribe_stops_notifications(self):
        clock = SimClock()
        seen = []
        observer = clock.subscribe(seen.append)
        clock.advance(1.0)
        clock.unsubscribe(observer)
        clock.advance(1.0)
        assert seen == [1.0]

    def test_unsubscribe_unknown_is_noop(self):
        clock = SimClock()
        clock.unsubscribe(lambda now: None)  # must not raise

    def test_observers_fire_in_subscription_order(self):
        clock = SimClock()
        order = []
        clock.subscribe(lambda now: order.append("a"))
        clock.subscribe(lambda now: order.append("b"))
        clock.advance(1.0)
        assert order == ["a", "b"]

    def test_observer_sees_committed_time(self):
        clock = SimClock()
        inside = []
        clock.subscribe(lambda now: inside.append(clock.now == now))
        clock.advance(3.0)
        assert inside == [True]

"""Simulated clock.

All components that need to know "what time it is" (device queues, the
Mutant optimizer epoch, the tracker's convergence window, the workload
runner) share one :class:`SimClock`. Time is a float in microseconds and
only moves forward.

Observers: a component that must *react* to the passage of simulated
time (the timeline sampler, a rate limiter) subscribes a callback with
:meth:`SimClock.subscribe`; it is invoked with the new time whenever the
clock actually moves. With no observers the hot path pays a single
truthiness check.
"""

from __future__ import annotations

from typing import Callable

#: An observer receives the new simulated time (usec) after each move.
ClockObserver = Callable[[float], None]


class SimClock:
    """A monotonically non-decreasing simulated clock (microseconds)."""

    __slots__ = ("_now", "_observers")

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start at negative time: {start}")
        self._now = float(start)
        self._observers: list[ClockObserver] = []

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    def subscribe(self, observer: ClockObserver) -> ClockObserver:
        """Register ``observer(new_time_usec)`` to fire when time moves.

        Returns the observer so call sites can keep the handle for
        :meth:`unsubscribe`. Observers fire in subscription order and
        must not advance the clock themselves (guarded by reentrancy of
        the ``_now`` update: the new time is committed before they run,
        but re-advancing from inside an observer raises recursion depth
        quickly and is a bug).
        """
        self._observers.append(observer)
        return observer

    def unsubscribe(self, observer: ClockObserver) -> None:
        """Remove a previously subscribed observer (no-op if absent)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    def _notify(self) -> None:
        for observer in self._observers:
            observer(self._now)

    def advance(self, delta_usec: float) -> float:
        """Move the clock forward by ``delta_usec`` and return the new time.

        Negative deltas are rejected: simulated time never rewinds.
        """
        if delta_usec < 0:
            raise ValueError(f"cannot advance clock by negative delta: {delta_usec}")
        if delta_usec > 0:
            self._now += delta_usec
            if self._observers:
                self._notify()
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.1f}us)"

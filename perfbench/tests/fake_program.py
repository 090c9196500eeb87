"""A synthetic three-level program for the tracer self-tests.

Time only passes through :func:`tick`, which the tests point at a fake
clock, so span arithmetic can be asserted exactly.
"""

from __future__ import annotations

NOW = [0]


def tick(ns: int) -> None:
    NOW[0] += ns


def clock() -> int:
    return NOW[0]


def leaf() -> str:
    tick(3)
    return "leaf"


class Middle:
    def work(self) -> None:
        tick(5)
        leaf()
        leaf()
        tick(2)

    def items(self):
        for index in range(3):
            tick(4)
            yield index

    def make_lane(self):
        def lane(amount):
            tick(amount)
            leaf()
            return amount

        return lane

    def passthrough_lane(self):
        return self.make_lane()


def outer() -> None:
    tick(10)
    Middle().work()
    tick(1)

"""Key-popularity distributions (the generators YCSB uses).

The paper's workloads are YCSB with Zipfian request distributions
(default theta 0.99, swept 0.6-1.4 in Fig. 11) plus the "latest"
distribution where recently inserted keys are hottest. The Zipfian
generator is the standard Gray et al. incremental sampler YCSB ships:
O(n) setup for the zeta constant, O(1) per sample. The *scrambled*
variant hashes ranks over the key space so popular keys are spread
uniformly across the key range rather than clustered at its start —
essential here, because clustering would let a single SSTable hold the
whole hot set and trivialize hot-cold separation. No generator keeps
anything per draw: the scramble hashes the rank again each time.
"""

from __future__ import annotations

import abc
import random
from functools import lru_cache

from repro.common.rng import fnv1a_64
from repro.errors import ConfigError


class KeyIndexGenerator(abc.ABC):
    """Produces key *indexes* in [0, n); key formatting happens upstream."""

    @abc.abstractmethod
    def next_index(self) -> int:
        """Sample one key index."""


class UniformGenerator(KeyIndexGenerator):
    """Every key equally likely."""

    def __init__(self, n_keys: int, rng: random.Random) -> None:
        if n_keys <= 0:
            raise ConfigError(f"n_keys must be positive: {n_keys}")
        self._n = n_keys
        self._rng = rng

    def next_index(self) -> int:
        return self._rng.randrange(self._n)


@lru_cache(maxsize=64)
def _zeta(n: int, theta: float) -> float:
    """Riemann zeta partial sum: sum_{i=1..n} 1 / i^theta (memoized).

    Every ZipfianGenerator construction needs zeta(n, theta) — an O(n)
    sum that dominated multi-experiment sweeps (the Fig. 11 theta sweep
    builds a generator per run over the same key space). One entry per
    (n, theta) pair, at most 64, each the exact float the direct sum
    produces, so sampling is bit-identical.
    """
    return float(sum(1.0 / (i**theta) for i in range(1, n + 1)))


def check_theta(theta: float) -> None:
    """The Zipfian skew rule: theta in (0, 2), excluding 1.0."""
    if not 0.0 < theta < 2.0 or theta == 1.0:
        raise ConfigError(f"theta must be in (0,2) excluding 1.0: {theta}")


class ZipfianGenerator(KeyIndexGenerator):
    """Gray et al. Zipfian sampler over ranks 0..n-1 (rank 0 hottest)."""

    def __init__(self, n_keys: int, theta: float, rng: random.Random) -> None:
        if n_keys <= 0:
            raise ConfigError(f"n_keys must be positive: {n_keys}")
        check_theta(theta)
        self._n = n_keys
        self._theta = theta
        self._rng = rng
        self._zetan = _zeta(n_keys, theta)
        zeta2 = _zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1.0 - (2.0 / n_keys) ** (1.0 - theta)) / (1.0 - zeta2 / self._zetan)

    def next_index(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self._theta:
            return 1
        rank = int(self._n * (self._eta * u - self._eta + 1.0) ** self._alpha)
        return min(rank, self._n - 1)


class ScrambledZipfianGenerator(KeyIndexGenerator):
    """Zipfian ranks hashed over the key space (YCSB's default).

    Rank r maps to ``fnv1a_64(r.to_bytes(8, "little")) % n_keys``,
    hashed again on every draw: a memo of the ranks drawn would grow
    with the key space.
    """

    def __init__(self, n_keys: int, theta: float, rng: random.Random) -> None:
        self._zipf = ZipfianGenerator(n_keys, theta, rng)
        self._n = n_keys

    def next_index(self) -> int:
        return fnv1a_64(self._zipf.next_index().to_bytes(8, "little")) % self._n


class LatestGenerator(KeyIndexGenerator):
    """YCSB's "latest": the most recently inserted keys are hottest.

    Rank r maps to index (max_index - r); as inserts grow the key space
    (via :meth:`note_insert`), popularity follows the tail.
    """

    def __init__(self, n_keys: int, theta: float, rng: random.Random) -> None:
        if n_keys <= 0:
            raise ConfigError(f"n_keys must be positive: {n_keys}")
        self._n = n_keys
        self._zipf = ZipfianGenerator(n_keys, theta, rng)

    def note_insert(self) -> None:
        """Grow the key space by one (a new hottest key)."""
        self._n += 1

    def next_index(self) -> int:
        rank = self._zipf.next_index()
        return max(0, self._n - 1 - rank)


def check_distribution(name: str, theta: float) -> None:
    """What :func:`make_generator` requires of a name and theta, before any key exists."""
    if name not in ("uniform", "zipfian", "latest"):
        raise ConfigError(f"unknown distribution {name!r}")
    if name != "uniform":
        check_theta(theta)


def make_generator(name: str, n_keys: int, theta: float, rng: random.Random) -> KeyIndexGenerator:
    """Factory by distribution name: uniform / zipfian / latest."""
    check_distribution(name, theta)
    if name == "uniform":
        return UniformGenerator(n_keys, rng)
    if name == "zipfian":
        return ScrambledZipfianGenerator(n_keys, theta, rng)
    return LatestGenerator(n_keys, theta, rng)

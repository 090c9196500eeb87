"""Process fan-out shared by the fleet runner and ``sweep --jobs``.

One contract, two shapes: ``stream_fan_out(worker, payloads, jobs)``
yields ``worker(p) for p in payloads`` — always in payload order,
regardless of how many processes executed them or in what order they
finished — and ``fan_out`` collects the same stream into a list.
``jobs == 1`` runs inline (no pool, no pickling, easiest to debug);
``jobs > 1`` uses a ``spawn`` pool, the start method that works the same
on every platform and never inherits dirty parent state (fork would
silently share the parent's warm zeta / fnv-prefix / ownership caches —
harmless for results, but a fork/spawn behaviour split is exactly the
kind of asymmetry the determinism tests exist to rule out).

The streaming shape exists for the fleet router: ``Pool.imap`` hands
each result over the moment its payload-order turn comes up, so the
router decodes and folds shard artifacts while later shards are still
simulating, instead of buffering every result behind a ``Pool.map``
barrier. Order is still payload order — ``imap`` (unlike
``imap_unordered``) never reorders — so consumers see exactly the
sequence ``fan_out`` would have returned.

Requirements on callers (enforced by pickle, documented here):

* ``worker`` must be a module-level function — spawn imports it by
  qualified name in each child.
* payloads and results must be picklable; the fleet passes plain
  dataclasses in and encoded artifact bytes out.
* ``worker`` must be a pure function of its payload. Results come back
  in payload order, so the merged output is a function of the payload
  list alone — that is the whole worker-count invariance argument, and
  the tests pin it.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Iterator, Sequence, TypeVar

from repro.errors import ConfigError

_P = TypeVar("_P")
_R = TypeVar("_R")


def stream_fan_out(
    worker: Callable[[_P], _R], payloads: Sequence[_P], jobs: int = 1
) -> Iterator[_R]:
    """Yield ``worker(p)`` per payload, in payload order, as they finish."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1: {jobs}")
    payloads = list(payloads)
    if jobs == 1 or len(payloads) <= 1:
        for payload in payloads:
            yield worker(payload)
        return
    context = multiprocessing.get_context("spawn")
    with context.Pool(processes=min(jobs, len(payloads))) as pool:
        # chunksize=1: payloads are coarse (a whole shard / sweep cell),
        # so letting the pool batch them would only serialize stragglers.
        yield from pool.imap(worker, payloads, chunksize=1)


def fan_out(
    worker: Callable[[_P], _R], payloads: Sequence[_P], jobs: int = 1
) -> list[_R]:
    """Run ``worker`` over ``payloads`` with up to ``jobs`` processes."""
    return list(stream_fan_out(worker, payloads, jobs))

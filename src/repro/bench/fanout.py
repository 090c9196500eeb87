"""Process fan-out shared by ``sweep --jobs`` and the fleet runner.

``stream_fan_out(worker, payloads, jobs)`` yields ``worker(p) for p in
payloads`` — always in payload order, regardless of how many processes
executed them or in what order they finished. ``jobs == 1`` runs inline
(no pool, no pickling, easiest to debug); ``jobs > 1`` starts a pool by
:func:`start_method`: ``fork`` on Linux when the caller runs a single
OS thread, else ``spawn``. A forked worker shares the caller's imports
and warm caches copy-on-write, and inherits nothing that can change a
result: the worker is pure, the caches (zeta sums, fnv prefix states,
ownership columns) memoize pure functions, and with one thread no lock
is held across the fork. Not ``forkserver``: its workers are the
server's children, so the caller's ``RUSAGE_CHILDREN`` (fleet CPU and
peak RSS in perfbench) misses them. Pool workers are never recycled:
each one runs many payloads in turn and keeps its per-process caches
across them, so a worker call must leave nothing of its own alive when
it returns (the fleet's ``run_shard`` frees its engine by reference
counting). An exception a worker raises is re-raised here, in payload
order; the fleet wraps its own as :class:`~repro.errors.ShardError` so
it names the failing shard.

Results stream: ``Pool.imap`` hands each result over the moment its
payload-order turn comes up, so a consumer (the sweep's progress lines,
the fleet's artifact merge) works on early results while later payloads
are still simulating, instead of waiting behind a ``Pool.map`` barrier.
``imap`` (unlike ``imap_unordered``) never reorders.

Requirements on callers (enforced by pickle, documented here):

* ``worker`` must be a module-level function — the spawn fallback
  imports it by qualified name in each child.
* payloads and results must be picklable; the fleet passes plain
  dataclasses in and encoded artifact bytes out.
* ``worker`` must be a pure function of its payload. Results come back
  in payload order, so the merged output is a function of the payload
  list alone — that is the whole worker-count invariance argument, and
  the tests pin it under both start methods.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from typing import Callable, Iterator, Sequence, TypeVar

from repro.errors import ConfigError

_P = TypeVar("_P")
_R = TypeVar("_R")


def start_method() -> str:
    """``fork`` on Linux for a single-threaded caller, else ``spawn``.

    ``/proc/self/task`` lists every OS thread, C-level ones included;
    with only the caller's there is no lock another thread could hold
    across the fork, and Python >= 3.12 raises no fork-with-threads
    ``DeprecationWarning``.
    """
    if sys.platform.startswith("linux"):
        try:
            if len(os.listdir("/proc/self/task")) == 1:
                return "fork"
        except OSError:
            pass
    return "spawn"


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
    context = multiprocessing.get_context(start_method())
    with context.Pool(processes=min(jobs, len(payloads))) as pool:
        # chunksize=1: payloads are coarse (a whole shard / sweep cell),
        # so letting the pool batch them would only serialize stragglers.
        yield from pool.imap(worker, payloads, chunksize=1)


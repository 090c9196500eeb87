"""Span tracer that measures the program from outside.

Before the system under test is built, :meth:`SpanTracer.install` wraps
the entry points named in a span table (class attributes, module-level
functions, and the closures some methods return). Each wrapped call is
one *span*; the tracer keeps a span stack and charges every span's
duration to its parent, so that

    self time of a span = its duration - the durations of its child spans

Per entry it accumulates calls, inclusive and self nanoseconds and the
number of direct child spans; the first ``raw_limit`` spans are also
kept verbatim (entry, start, duration, parent entry, depth — in exit
order) and written out with the ledger. :meth:`calibrate` measures how
one span's overhead splits between its own interval and its parent's
self time; :func:`perfbench.ledger.attribute_overhead` subtracts it.

A target that cannot be resolved is skipped and listed in
``unresolved``, so a refactor of the program cannot break the
benchmark — it only shows up as ``trace.unresolved_spans``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import types
from dataclasses import dataclass
from typing import Callable

_clock = time.perf_counter_ns
_GeneratorType = types.GeneratorType


@dataclass(frozen=True)
class SpanTarget:
    """One row of the span table."""

    layer: str
    #: ``"package.module:Class.attr"`` or ``"package.module:function"``.
    target: str
    #: The layer's only hot entry is private; listed and marked as such.
    private: bool = False
    #: Span the callable this method *returns* (a fast-lane closure),
    #: not the call that builds it.
    factory: bool = False
    #: Optional ``(args, result) -> int`` work-unit counter, summed per entry.
    units: Callable | None = None
    #: Optional ``(tracer, result, duration_ns) -> None`` called after the span.
    on_return: Callable | None = None


class SpanTracer:
    def __init__(self, raw_limit: int = 5_000) -> None:
        #: Spans are recorded only while this is true (the measured region).
        self.on = False
        self.names: list[str] = []
        self.layers: list[str] = []
        self.private: list[bool] = []
        self.calls: list[int] = []
        self.incl_ns: list[int] = []
        self.self_ns: list[int] = []
        self.children: list[int] = []
        self.units: list[int] = []
        self.unresolved: list[str] = []
        self.raw: list[tuple[int, int, int, int, int]] = []
        self.raw_limit = raw_limit
        #: Free-form state for ``on_return`` hooks (e.g. stall bookkeeping).
        self.scratch: dict = {}
        #: Flat span stack: [entry id, child ns, entry id, child ns, ...].
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        #: Per-span overhead (ns) landing inside the span's own interval
        #: and in its parent's self time; set by :meth:`calibrate`.
        self.overhead_in_ns = 0.0
        self.overhead_out_ns = 0.0

    # ------------------------------------------------------------------
    # Entries and wrappers
    # ------------------------------------------------------------------
    def entry(self, layer: str, name: str, private: bool = False) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self.private.append(private)
        for column in (self.calls, self.incl_ns, self.self_ns, self.children, self.units):
            column.append(0)
        return len(self.names) - 1

    def _enter(self, eid: int) -> int:
        self._stack.append(eid)
        self._stack.append(0)
        return _clock()

    def _exit(self, eid: int, t0: int) -> int:
        dur = _clock() - t0
        stack = self._stack
        child = stack.pop()
        stack.pop()
        self.calls[eid] += 1
        self.incl_ns[eid] += dur
        self.self_ns[eid] += dur - child
        parent = -1
        if stack:
            stack[-1] += dur
            parent = stack[-2]
            self.children[parent] += 1
        if len(self.raw) < self.raw_limit:
            self.raw.append((eid, t0, dur, parent, len(stack) // 2))
        return dur

    def wrap(self, fn: Callable, eid: int, units=None, on_return=None) -> Callable:
        """Return ``fn`` wrapped as spans of entry ``eid``.

        A call that returns a generator is not itself a span; every
        resumption of the generator is (that is where its body runs).
        """
        tracer = self
        enter = self._enter
        exit_ = self._exit

        def resume_spans(gen):
            while True:
                t0 = enter(eid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    exit_(eid, t0)
                yield item

        # Two bodies on purpose: the hook-free one is the hot path and
        # every branch in it is paid once per span.
        if units is None and on_return is None:

            def span(*args, **kwargs):
                if not tracer.on:
                    return fn(*args, **kwargs)
                t0 = enter(eid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_(eid, t0)
                if type(result) is _GeneratorType:
                    # The creating call did no work; un-count it.
                    tracer.calls[eid] -= 1
                    return resume_spans(result)
                return result

        else:

            def span(*args, **kwargs):
                if not tracer.on:
                    return fn(*args, **kwargs)
                t0 = enter(eid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = exit_(eid, t0)
                if units is not None:
                    tracer.units[eid] += units(args, result)
                if on_return is not None:
                    on_return(tracer, result, dur)
                return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", "span")
        span.__doc__ = getattr(fn, "__doc__", None)
        span._pb_span = True
        return span

    def wrap_factory(self, fn: Callable, eid: int, decorate=None, **span_kwargs) -> Callable:
        """Wrap a method that returns a callable: the *returned* callable
        becomes the span (unless it already is one), then ``decorate``."""

        def factory(*args, **kwargs):
            made = fn(*args, **kwargs)
            inner = getattr(made, "__func__", made)
            if not getattr(inner, "_pb_span", False):
                made = self.wrap(made, eid, **span_kwargs)
            return decorate(made) if decorate is not None else made

        factory.__wrapped__ = fn
        factory._pb_span = True
        return factory

    # ------------------------------------------------------------------
    # Installing a span table
    # ------------------------------------------------------------------
    def install(self, targets, decorators: dict[str, Callable] | None = None) -> None:
        """Patch every resolvable target; unresolved ones are recorded.

        ``decorators`` maps a target string to a function applied on top
        of the span wrapper (for factories: on top of the returned
        closure) — the inline oracle check uses it.
        """
        decorators = decorators or {}
        for target in targets:
            try:
                self._install_one(target, decorators.get(target.target))
            except (ImportError, AttributeError):
                self.unresolved.append(target.target)

    def _install_one(self, target: SpanTarget, decorate) -> None:
        module_name, _, path = target.target.partition(":")
        module = importlib.import_module(module_name)
        parts = path.split(".")
        owner = module
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        static = inspect.getattr_static(owner, attr)  # AttributeError if gone
        eid = self.entry(target.layer, path, target.private)
        span_kwargs = dict(units=target.units, on_return=target.on_return)

        def build(fn):
            if target.factory:
                return self.wrap_factory(fn, eid, decorate, **span_kwargs)
            wrapped = self.wrap(fn, eid, **span_kwargs)
            return decorate(wrapped) if decorate is not None else wrapped

        if isinstance(static, staticmethod):
            replacement = staticmethod(build(static.__func__))
        elif isinstance(static, classmethod):
            replacement = classmethod(build(static.__func__))
        elif isinstance(static, property):
            replacement = property(build(static.fget), static.fset, static.fdel, static.__doc__)
        else:
            replacement = build(static)
        self._patch(owner, attr, static, replacement)
        if owner is module:
            # Other modules bound the function by name at import time.
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "")
                if other is module or not name.startswith(module_name.split(".")[0] + "."):
                    continue
                for global_name, value in list(vars(other).items()):
                    if value is static:
                        self._patch(other, global_name, static, replacement)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    # Overhead calibration and the per-layer roll-up
    # ------------------------------------------------------------------
    def calibrate(self, iterations: int = 50_000) -> None:
        """Measure what one span costs, inside and outside its interval.

        A no-op is called bare and wrapped inside a parent span. The
        span's measured self time beyond a bare call is the overhead
        that lands *inside* the span; the rest of the added wall time
        lands in the *parent's* self time.
        """

        def noop():
            return None

        def loop(fn, n):
            t0 = _clock()
            for _ in range(n):
                fn()
            return _clock() - t0

        def empty(n):
            t0 = _clock()
            for _ in range(n):
                pass
            return _clock() - t0

        was_on, self.on = self.on, True
        parent = self.entry("trace.calibration", "parent")
        child = self.entry("trace.calibration", "noop")
        wrapped = self.wrap(noop, child)
        raw_limit, self.raw_limit = self.raw_limit, 0
        try:
            loop(wrapped, 2_000)  # warm the code paths
            for column in (self.calls, self.incl_ns, self.self_ns, self.children):
                column[child] = column[parent] = 0
            best_in = best_total = None
            for _ in range(5):
                bare = loop(noop, iterations)
                bare_call = max(0, bare - empty(iterations)) / iterations
                self.self_ns[child] = 0
                t0 = self._enter(parent)
                wrapped_ns = loop(wrapped, iterations)
                self._exit(parent, t0)
                inside = self.self_ns[child] / iterations - bare_call
                total = (wrapped_ns - bare) / iterations
                if best_total is None or total < best_total:
                    best_in, best_total = inside, total
            self.overhead_in_ns = max(0.0, best_in)
            self.overhead_out_ns = max(0.0, best_total - self.overhead_in_ns)
        finally:
            self.on = was_on
            self.raw_limit = raw_limit
            for column in (self.calls, self.incl_ns, self.self_ns, self.children, self.units):
                column[child] = column[parent] = 0

    def by_layer(self) -> dict[str, dict]:
        """Per layer: calls, self ns, and the entries they were summed from."""
        layers: dict[str, dict] = {}
        for eid, layer in enumerate(self.layers):
            if layer == "trace.calibration":
                continue
            row = layers.setdefault(layer, {"calls": 0, "self_ns": 0, "entries": {}})
            row["calls"] += self.calls[eid]
            row["self_ns"] += self.self_ns[eid]
            row["entries"][self.names[eid]] = {
                "calls": self.calls[eid],
                "inclusive_ns": self.incl_ns[eid],
                "self_ns": self.self_ns[eid],
                "children": self.children[eid],
                "units": self.units[eid],
                "private": self.private[eid],
            }
        return layers

    def entry_id(self, name: str) -> int | None:
        """First entry with this name (``Class.attr``), if installed."""
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def raw_spans(self) -> list[dict]:
        return [
            {
                "entry": self.names[eid],
                "layer": self.layers[eid],
                "start_ns": start,
                "dur_ns": dur,
                "parent": self.names[parent] if parent >= 0 else None,
                "depth": depth,
            }
            for eid, start, dur, parent, depth in self.raw
        ]

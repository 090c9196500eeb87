"""Structured tracing on the simulated clock.

A :class:`Tracer` records *spans* (a named interval with labels, e.g. one
compaction job) and *instants* (a point event, e.g. a trivial move) with
timestamps taken from the shared :class:`~repro.common.clock.SimClock`,
so a trace shows where **simulated** time goes — the same time the
benchmarks report.

Events use the Chrome Trace Event Format (``ph: "X"`` complete events and
``ph: "i"`` instants with microsecond ``ts``/``dur``), serialized one
JSON object per line (JSONL). :meth:`Tracer.write_chrome_json` wraps the
same events in the ``{"traceEvents": [...]}`` envelope that
``chrome://tracing`` and https://ui.perfetto.dev open directly; the JSONL
file is the stable on-disk schema (see ``docs/OBSERVABILITY.md``).

Tracing defaults to *disabled*: ``span()`` then returns one shared no-op
context manager and records nothing — no event objects, no clock reads,
no per-call allocation — so instrumented hot paths cost a single branch.
``sample_every=N`` keeps every Nth span once enabled (instants are always
kept; they are rare); sampled-out spans are counted in
:attr:`Tracer.spans_dropped`.

Serialized traces lead with chrome-trace ``M`` metadata events: a
``trace_config`` record carrying the effective ``sample_every`` and the
drop counters, plus ``process_name``/``thread_name`` records that name a
pseudo-process per component (span name) and a pseudo-thread per tier —
so chrome://tracing groups "compaction on tlc" under a labeled track
instead of one anonymous pid 0 lane.
"""

from __future__ import annotations

import json
from typing import IO

from repro.common.clock import SimClock


class _NoopSpan:
    """Shared do-nothing context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set_duration(self, dur_usec: float) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class _Span:
    """An open span; closing it appends one complete ("X") event."""

    __slots__ = ("_tracer", "_name", "_args", "_start", "_dur_override", "_pid", "_tid")

    def __init__(self, tracer: "Tracer", name: str, args: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._args = args
        self._start = tracer.clock.now
        self._dur_override: float | None = None
        self._pid, self._tid = tracer._track_for(name, args.get("tier", ""))

    def set_duration(self, dur_usec: float) -> None:
        """Override the span duration.

        Background work (compaction, migration) does not advance the
        simulated clock directly — its cost is modeled as device busy
        time and backlog. Instrumentation passes that modeled service
        time here so the trace still shows where simulated time went.
        """
        self._dur_override = max(0.0, dur_usec)

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc_info) -> None:
        clock = self._tracer.clock
        dur = clock.now - self._start if self._dur_override is None else self._dur_override
        self._tracer._append(
            {
                "name": self._name,
                "cat": "repro",
                "ph": "X",
                "ts": self._start,
                "dur": dur,
                "pid": self._pid,
                "tid": self._tid,
                "args": self._args,
            }
        )


#: Events one tracer keeps; beyond it new events are dropped and counted
#: in :attr:`Tracer.dropped_events`.
MAX_EVENTS = 1_000_000


class Tracer:
    """Span/instant recorder over a simulated clock.

    ``clock`` may be None only while disabled (the no-op mode never reads
    it). ``MAX_EVENTS`` bounds memory.
    """

    def __init__(
        self,
        clock: SimClock | None,
        *,
        enabled: bool = True,
        sample_every: int = 1,
    ) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1: {sample_every}")
        if enabled and clock is None:
            raise ValueError("an enabled tracer needs a clock")
        self.clock = clock  # type: ignore[assignment]
        self._enabled = enabled
        self._sample_every = sample_every
        self._span_seq = 0
        self.events: list[dict] = []
        self.dropped_events = 0
        #: Spans skipped by ``sample_every`` (distinct from
        #: :attr:`dropped_events`, the memory-bound overflow count).
        self.spans_dropped = 0
        # Pseudo-process per component name and pseudo-thread per
        # (pid, tier), assigned in first-use order so identical runs
        # produce identical ids (the golden-trace determinism test).
        self._process_ids: dict[str, int] = {}
        self._thread_ids: dict[tuple[int, str], int] = {}

    # ------------------------------------------------------------------
    # Mode control
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self, *, sample_every: int | None = None) -> None:
        """Turn recording on (the registry-owner flips this for runs)."""
        if self.clock is None:
            raise ValueError("cannot enable a tracer that has no clock")
        if sample_every is not None:
            if sample_every < 1:
                raise ValueError(f"sample_every must be >= 1: {sample_every}")
            self._sample_every = sample_every
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _append(self, event: dict) -> None:
        if len(self.events) >= MAX_EVENTS:
            self.dropped_events += 1
            return
        self.events.append(event)

    def _track_for(self, name: str, tier: str) -> tuple[int, int]:
        """(pid, tid) for a component/tier pair, assigned on first use."""
        pid = self._process_ids.get(name)
        if pid is None:
            pid = self._process_ids[name] = len(self._process_ids) + 1
        key = (pid, tier)
        tid = self._thread_ids.get(key)
        if tid is None:
            tid = self._thread_ids[key] = sum(
                1 for existing in self._thread_ids if existing[0] == pid
            )
        return pid, tid

    def span(self, name: str, **labels):
        """Open a span: ``with tracer.span("compaction", tier="tlc"): ...``"""
        if not self._enabled:
            return _NOOP_SPAN
        self._span_seq += 1
        if self._sample_every > 1 and self._span_seq % self._sample_every:
            self.spans_dropped += 1
            return _NOOP_SPAN
        return _Span(self, name, {k: str(v) for k, v in labels.items()})

    def instant(self, name: str, **labels) -> None:
        """Record a point event (always kept while enabled)."""
        if not self._enabled:
            return
        args = {k: str(v) for k, v in labels.items()}
        pid, tid = self._track_for(name, args.get("tier", ""))
        self._append(
            {
                "name": name,
                "cat": "repro",
                "ph": "i",
                "ts": self.clock.now,
                "s": "g",
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )

    def clear(self) -> None:
        self.events.clear()
        self.dropped_events = 0
        self.spans_dropped = 0
        self._span_seq = 0
        self._process_ids.clear()
        self._thread_ids.clear()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def metadata_events(self) -> list[dict]:
        """Chrome-trace ``M`` metadata naming the pseudo-tracks.

        One ``trace_config`` record (effective ``sample_every`` plus both
        drop counters), one ``process_name`` per component, and one
        ``thread_name`` per (component, tier) pair. Regenerated at each
        serialization so the drop counters are current; not stored in
        :attr:`events`.
        """
        meta = [
            {
                "name": "trace_config",
                "cat": "__metadata",
                "ph": "M",
                "ts": 0,
                "pid": 0,
                "tid": 0,
                "args": {
                    "sample_every": self._sample_every,
                    "spans_dropped": self.spans_dropped,
                    "events_dropped": self.dropped_events,
                },
            }
        ]
        for name, pid in self._process_ids.items():
            meta.append(
                {
                    "name": "process_name",
                    "cat": "__metadata",
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": name},
                }
            )
        for (pid, tier), tid in self._thread_ids.items():
            meta.append(
                {
                    "name": "thread_name",
                    "cat": "__metadata",
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": tier or "main"},
                }
            )
        return meta

    def write_jsonl(self, path_or_file: str | IO[str]) -> int:
        """Write one chrome-trace event per line (metadata first);
        returns the number of lines written."""
        if hasattr(path_or_file, "write"):
            written = 0
            for event in self.metadata_events() + self.events:
                path_or_file.write(json.dumps(event, sort_keys=True) + "\n")
                written += 1
            return written
        with open(path_or_file, "w", encoding="utf-8") as handle:
            return self.write_jsonl(handle)

    def write_chrome_json(self, path_or_file: str | IO[str]) -> int:
        """Write the ``{"traceEvents": [...]}`` envelope chrome opens."""
        if hasattr(path_or_file, "write"):
            events = self.metadata_events() + self.events
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms"},
                path_or_file,
                sort_keys=True,
            )
            return len(events)
        with open(path_or_file, "w", encoding="utf-8") as handle:
            return self.write_chrome_json(handle)


def read_jsonl(path: str) -> list[dict]:
    """Parse a JSONL trace file back into event dicts."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def jsonl_to_chrome_json(jsonl_path: str, json_path: str) -> int:
    """Convert a JSONL trace into a chrome://tracing-openable JSON file."""
    events = read_jsonl(jsonl_path)
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return len(events)


#: Process-wide disabled tracer, safe to share (it never mutates).
NOOP_TRACER = Tracer(None, enabled=False)

"""Tests for the span/instant tracer and its JSONL serialization."""

import json

import pytest

from repro.common import KIB
from repro.common.clock import SimClock
from repro.lsm import DBOptions, LsmDB
from repro.obs import NOOP_TRACER, Tracer, jsonl_to_chrome_json, read_jsonl, tracing


class TestNoopMode:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(SimClock(), enabled=False)
        with tracer.span("compaction", tier="tlc"):
            pass
        tracer.instant("trivial_move", level=1)
        assert tracer.events == []

    def test_disabled_span_is_the_shared_singleton(self):
        # The no-op path must not allocate per call: every disabled
        # span() returns the same object.
        tracer = Tracer(SimClock(), enabled=False)
        a = tracer.span("x")
        b = tracer.span("y", tier="nvm")
        assert a is b
        a.set_duration(5.0)  # harmless no-op

    def test_global_noop_tracer(self):
        with NOOP_TRACER.span("anything"):
            pass
        assert NOOP_TRACER.events == []
        assert not NOOP_TRACER.enabled

    def test_enabled_tracer_needs_clock(self):
        with pytest.raises(ValueError):
            Tracer(None, enabled=True)
        tracer = Tracer(None, enabled=False)
        with pytest.raises(ValueError):
            tracer.enable()


class TestRecording:
    def test_span_records_simulated_interval(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("flush", tier="nvm"):
            clock.advance(125.0)
        (event,) = tracer.events
        assert event["name"] == "flush"
        assert event["ph"] == "X"
        assert event["dur"] == pytest.approx(125.0)
        assert event["args"] == {"tier": "nvm"}

    def test_set_duration_overrides_clock_delta(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("compaction") as span:
            span.set_duration(999.0)  # background work: clock is still
        assert tracer.events[0]["dur"] == pytest.approx(999.0)

    def test_instant_event(self):
        clock = SimClock()
        clock.advance(10.0)
        tracer = Tracer(clock)
        tracer.instant("trivial_move", level=1, bytes=2048)
        (event,) = tracer.events
        assert event["ph"] == "i"
        assert event["ts"] == pytest.approx(10.0)
        assert event["args"] == {"level": "1", "bytes": "2048"}

    def test_sampling_keeps_every_nth_span(self):
        clock = SimClock()
        tracer = Tracer(clock, sample_every=3)
        for _ in range(9):
            with tracer.span("op"):
                clock.advance(1.0)
        assert len(tracer.events) == 3

    def test_max_events_bounds_memory(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_EVENTS", 2)
        clock = SimClock()
        tracer = Tracer(clock)
        for _ in range(5):
            with tracer.span("op"):
                pass
        assert len(tracer.events) == 2
        assert tracer.dropped_events == 3

    def test_clear_resets_state(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("op"):
            pass
        tracer.clear()
        assert tracer.events == []
        assert tracer.dropped_events == 0


class TestSerialization:
    def test_jsonl_round_trip(self, tmp_path):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("flush", tier="nvm"):
            clock.advance(3.0)
        tracer.instant("trivial_move", level=1)
        path = str(tmp_path / "trace.jsonl")
        written = tracer.write_jsonl(path)
        lines = read_jsonl(path)
        assert written == len(lines)
        recorded = [event for event in lines if event["ph"] != "M"]
        assert recorded == tracer.events

    def test_chrome_json_envelope(self, tmp_path):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("op"):
            clock.advance(1.0)
        jsonl = str(tmp_path / "t.jsonl")
        chrome = str(tmp_path / "t.json")
        written = tracer.write_jsonl(jsonl)
        assert jsonl_to_chrome_json(jsonl, chrome) == written
        with open(chrome) as handle:
            doc = json.load(handle)
        recorded = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert recorded == tracer.events
        assert doc["displayTimeUnit"] == "ms"


class TestMetadata:
    def test_metadata_names_processes_and_threads(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("compaction", tier="tlc-L3"):
            clock.advance(1.0)
        with tracer.span("compaction", tier="qlc-L4"):
            clock.advance(1.0)
        with tracer.span("flush", tier="nvm-L0-L2"):
            clock.advance(1.0)
        meta = tracer.metadata_events()
        assert all(event["ph"] == "M" for event in meta)
        assert all(event["cat"] == "__metadata" for event in meta)
        processes = {
            e["args"]["name"]: e["pid"] for e in meta if e["name"] == "process_name"
        }
        assert set(processes) == {"compaction", "flush"}
        threads = {
            (e["pid"], e["args"]["name"]) for e in meta if e["name"] == "thread_name"
        }
        assert (processes["compaction"], "tlc-L3") in threads
        assert (processes["compaction"], "qlc-L4") in threads
        assert (processes["flush"], "nvm-L0-L2") in threads
        # Recorded events carry the same pid/tid the metadata names.
        for event in tracer.events:
            assert event["pid"] in processes.values()

    def test_trace_config_reports_sampling_and_drops(self):
        clock = SimClock()
        tracer = Tracer(clock, sample_every=3)
        for _ in range(9):
            with tracer.span("op"):
                clock.advance(1.0)
        assert tracer.spans_dropped == 6
        (config,) = [
            e for e in tracer.metadata_events() if e["name"] == "trace_config"
        ]
        assert config["args"]["sample_every"] == 3
        assert config["args"]["spans_dropped"] == 6
        assert config["args"]["events_dropped"] == 0

    def test_clear_resets_tracks_and_drop_counters(self):
        clock = SimClock()
        tracer = Tracer(clock, sample_every=2)
        for _ in range(4):
            with tracer.span("op", tier="nvm"):
                pass
        tracer.clear()
        assert tracer.spans_dropped == 0
        assert [e for e in tracer.metadata_events() if e["ph"] == "M"
                and e["name"] != "trace_config"] == []

    def test_pid_tid_assignment_is_deterministic(self):
        def record(tracer, clock):
            with tracer.span("flush", tier="nvm"):
                clock.advance(1.0)
            with tracer.span("compaction", tier="tlc"):
                clock.advance(1.0)
            tracer.instant("trivial_move", tier="tlc")

        clock_a, clock_b = SimClock(), SimClock()
        a, b = Tracer(clock_a), Tracer(clock_b)
        record(a, clock_a)
        record(b, clock_b)
        assert a.events == b.events
        assert a.metadata_events() == b.metadata_events()


class TestGoldenDbTrace:
    """A tiny put/get/compact sequence yields a stable, valid trace."""

    def make_db(self):
        options = DBOptions(
            memtable_bytes=2 * KIB,
            target_file_bytes=2 * KIB,
            level1_target_bytes=4 * KIB,
            level_size_multiplier=4,
            block_bytes=512,
            block_cache_bytes=16 * KIB,
        )
        db = LsmDB.create("NNNTQ", options)
        db.tracer.enable()
        return db

    def test_flush_and_compaction_spans(self):
        db = self.make_db()
        for i in range(300):
            db.put(f"key{i:05d}".encode(), b"x" * 64)
        for i in range(0, 300, 50):
            db.get(f"key{i:05d}".encode())
        names = {event["name"] for event in db.tracer.events}
        assert "flush" in names
        assert "compaction" in names or "trivial_move" in names
        # Every event is schema-complete and JSONL-serializable.
        for event in db.tracer.events:
            assert event["ph"] in ("X", "i")
            assert event["cat"] == "repro"
            assert event["ts"] >= 0.0
            assert isinstance(event["args"], dict)
            json.dumps(event)
        flushes = [e for e in db.tracer.events if e["name"] == "flush"]
        assert all(event["dur"] > 0.0 for event in flushes), (
            "flush spans must carry the modeled device busy time"
        )

    def test_trace_is_deterministic(self):
        first = self.make_db()
        second = self.make_db()
        for db in (first, second):
            for i in range(200):
                db.put(f"key{i:05d}".encode(), b"x" * 64)
        assert first.tracer.events == second.tracer.events

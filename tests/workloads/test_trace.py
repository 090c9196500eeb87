"""Tests for trace recording and replay."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from request_ops import ops

from repro.errors import CorruptionError
from repro.workloads.trace import (
    TraceWorkload,
    dump_trace,
    format_request,
    load_trace,
    parse_request,
)
from repro.workloads.ycsb import (
    OP_INSERT,
    OP_READ,
    OP_SCAN,
    OP_UPDATE,
    YCSBConfig,
    YCSBWorkload,
)


class TestLineCodec:
    def test_read_round_trip(self):
        request = (OP_READ, b"key\x00\xff", b"", 0)
        assert parse_request(format_request(*request)) == request

    def test_update_round_trip(self):
        request = (OP_UPDATE, b"k", b"value bytes \x01", 0)
        assert parse_request(format_request(*request)) == request

    def test_insert_round_trip(self):
        request = (OP_INSERT, b"k", b"v", 0)
        assert parse_request(format_request(*request)) == request

    def test_scan_round_trip(self):
        request = (OP_SCAN, b"start", b"", 42)
        assert parse_request(format_request(*request)) == request

    def test_bad_lines_rejected(self):
        for line in (
            "",
            "NOPE\tff",
            "READ",
            "READ\tzz",
            "READ\tff\textra",
            "UPDATE\tff",
            "UPDATE\tff\tzz",
            "SCAN\tff",
            "SCAN\tff\tnot-a-number",
            "SCAN\tff\t-1",
        ):
            with pytest.raises(CorruptionError):
                parse_request(line, 7)

    @given(
        st.sampled_from([OP_READ, OP_UPDATE, OP_INSERT, OP_SCAN]),
        st.binary(min_size=1, max_size=32),
        st.binary(max_size=32),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, kind, key, value, scan_length):
        if kind == OP_READ:
            request = (kind, key, b"", 0)
        elif kind == OP_SCAN:
            request = (kind, key, b"", scan_length)
        else:
            request = (kind, key, value, 0)
        assert parse_request(format_request(*request)) == request


class TestTraceFiles:
    def test_dump_and_load(self, tmp_path):
        config = YCSBConfig(record_count=50, operation_count=120)
        workload = YCSBWorkload(config)
        path = tmp_path / "run.trace"
        count = dump_trace(workload.run_batches(), path)
        assert count == 120
        replayed = list(ops(load_trace(path)))
        original = list(ops(workload.run_batches()))
        assert replayed == original

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("READ\taa\n\nREAD\tbb\n")
        assert len(list(ops(load_trace(path)))) == 2

    def test_bad_line_named_by_number(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("READ\taa\n\nNOPE\tbb\n")
        with pytest.raises(CorruptionError, match="trace line 3"):
            list(load_trace(path))

    def test_trace_workload_phases(self, tmp_path):
        config = YCSBConfig(record_count=30, operation_count=40, warmup_operations=20)
        workload = YCSBWorkload(config)
        load_path = tmp_path / "load.trace"
        warm_path = tmp_path / "warm.trace"
        run_path = tmp_path / "run.trace"
        dump_trace(workload.load_batches(), load_path)
        dump_trace(workload.warmup_batches(), warm_path)
        dump_trace(workload.run_batches(), run_path)
        trace = TraceWorkload(load_path, run_path, warmup_path=warm_path)
        assert len(list(ops(trace.load_batches()))) == 30
        assert len(list(ops(trace.warmup_batches()))) == 20
        assert len(list(ops(trace.run_batches()))) == 40
        assert trace.total_data_bytes() == workload.total_data_bytes()

    def test_no_warmup_is_empty(self, tmp_path):
        path = tmp_path / "x.trace"
        path.write_text("READ\taa\n")
        trace = TraceWorkload(path, path)
        assert list(trace.warmup_batches()) == []

    def test_trace_drives_runner(self, tmp_path):
        from repro.bench.harness import SystemConfig, WorkloadRunner, build_system

        config = YCSBConfig(record_count=500, operation_count=400)
        workload = YCSBWorkload(config)
        load_path = tmp_path / "load.trace"
        run_path = tmp_path / "run.trace"
        dump_trace(workload.load_batches(), load_path)
        dump_trace(workload.run_batches(), run_path)
        trace = TraceWorkload(load_path, run_path)

        db = build_system(SystemConfig(system="rocksdb"), workload)
        runner = WorkloadRunner(db)
        runner.load(trace)
        elapsed = runner.run(trace)
        assert elapsed > 0
        assert len(runner.read_latency) + len(runner.update_latency) == 400

"""Unit tests for trace serialization."""

import itertools

import pytest

from repro.common.types import TraceRecord
from repro.workloads.base import SyntheticWorkload
from repro.workloads.server import ServerWorkload
from repro.workloads.trace_io import (
    FileTraceWorkload,
    capture,
    read_trace,
    write_trace,
)


def sample_records():
    return [
        TraceRecord(pc=0x40_0000, num_instrs=4, loads=(0x80_0000,), stores=()),
        TraceRecord(pc=0x40_0040, num_instrs=1),
        TraceRecord(pc=0x40_0080, num_instrs=6, loads=(0x1, 0x2), stores=(0x3,)),
    ]


class TestRoundTrip:
    def test_write_read_identity(self, tmp_path):
        path = tmp_path / "t.rptr"
        count = write_trace(path, sample_records())
        assert count == 3
        assert list(read_trace(path)) == sample_records()

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "t.rptr"
        write_trace(path, [])
        assert list(read_trace(path)) == []

    def test_rejects_oversized_num_instrs(self, tmp_path):
        path = tmp_path / "t.rptr"
        with pytest.raises(ValueError):
            write_trace(path, [TraceRecord(pc=0, num_instrs=300)])

    def test_round_trips_a_full_record(self, tmp_path):
        path = tmp_path / "t.rptr"
        record = TraceRecord(
            pc=2**64 - 64, num_instrs=255,
            loads=tuple(range(255)), stores=tuple(2**64 - 1 - i for i in range(255)),
        )
        write_trace(path, [record, *sample_records()])
        assert list(read_trace(path)) == [record, *sample_records()]

    def test_read_records_are_trace_records(self, tmp_path):
        path = tmp_path / "t.rptr"
        write_trace(path, sample_records())
        assert all(type(r) is TraceRecord for r in read_trace(path))

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rptr"
        path.write_bytes(b"NOTATRACE")
        with pytest.raises(ValueError, match="not a repro trace"):
            list(read_trace(path))

    def test_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "t.rptr"
        write_trace(path, sample_records())
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(ValueError, match="truncated"):
            list(read_trace(path))


class TestWriteValidation:
    @pytest.mark.parametrize(
        "bad, match",
        [
            (TraceRecord(0x400040, 4, tuple(range(300))), "record 1: 300 loads"),
            (TraceRecord(0x400040, 4, (), tuple(range(256))), "record 1: 256 stores"),
            (TraceRecord(-64, 4), "record 1: pc"),
            (TraceRecord(2**64, 4), "record 1: pc"),
            (TraceRecord(0x400040, 4, (1, -8)), "record 1: loads address"),
            (TraceRecord(0x400040, 4, (), (2**64,)), "record 1: stores address"),
            (TraceRecord(0x400040, 0), "record 1: num_instrs"),
        ],
    )
    def test_names_the_field_and_leaves_no_file(self, tmp_path, bad, match):
        path = tmp_path / "t.rptr"
        with pytest.raises(ValueError, match=match):
            write_trace(path, [TraceRecord(0x400000, 4, (1,)), bad])
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_previous_trace(self, tmp_path):
        path = tmp_path / "t.rptr"
        write_trace(path, sample_records())
        with pytest.raises(ValueError):
            write_trace(path, [TraceRecord(-1, 4)])
        assert list(read_trace(path)) == sample_records()
        assert list(tmp_path.iterdir()) == [path]

    def test_failing_capture_leaves_no_file(self, tmp_path):
        class Failing(SyntheticWorkload):
            def record_stream(self):
                yield TraceRecord(0x400000, 4)
                raise RuntimeError("generator failed")

        path = tmp_path / "cap.rptr"
        with pytest.raises(RuntimeError, match="generator failed"):
            capture(Failing("f", 0), path, 10)
        assert list(tmp_path.iterdir()) == []


class TestCaptureReplay:
    def test_capture_matches_generator(self, tmp_path):
        wl = ServerWorkload("w", 9, code_pages=32, data_pages=500,
                            hot_data_pages=32, warm_pages=100, local_pages=16)
        path = tmp_path / "cap.rptr"
        capture(wl, path, 200)
        live = list(itertools.islice(wl.record_stream(), 200))
        assert list(read_trace(path)) == live

    def test_file_workload_loops(self, tmp_path):
        path = tmp_path / "t.rptr"
        write_trace(path, sample_records())
        wl = FileTraceWorkload("replay", path)
        records = list(itertools.islice(wl.record_stream(), 7))
        assert records[:3] == sample_records()
        assert records[3:6] == sample_records()

    def test_file_workload_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            FileTraceWorkload("x", tmp_path / "nope.rptr")

    def test_file_workload_empty_trace_raises(self, tmp_path):
        path = tmp_path / "t.rptr"
        write_trace(path, [])
        wl = FileTraceWorkload("x", path)
        with pytest.raises(ValueError, match="no records"):
            next(wl.record_stream())

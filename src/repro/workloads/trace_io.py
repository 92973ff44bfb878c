"""Trace serialization.

The paper's artifact ships ``*.champsimtrace.xz`` files; our equivalent is
a compact binary format for captured synthetic traces, so experiments can
be replayed bit-identically without regenerating them.

Format: little-endian records of
``<pc:u64><num_instrs:u8><num_loads:u8><num_stores:u8>`` followed by
``num_loads + num_stores`` u64 addresses.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Iterable, Iterator, Tuple, Union

from ..common.types import TraceRecord
from .base import SyntheticWorkload

_HEADER = struct.Struct("<QBBB")
MAGIC = b"RPTR1\x00"
#: Upper bound (exclusive) of a u64 field: pc and addresses.
_U64_END = 1 << 64


def _check(index: int, record: TraceRecord) -> None:
    """Raise a ValueError naming the first field of ``record`` the format
    cannot hold."""
    if not 0 < record.num_instrs < 256:
        raise ValueError(
            f"record {index}: num_instrs must fit in a byte and be positive, "
            f"got {record.num_instrs}"
        )
    if not 0 <= record.pc < _U64_END:
        raise ValueError(f"record {index}: pc {record.pc:#x} does not fit in a u64")
    for field in ("loads", "stores"):
        addrs = getattr(record, field)
        if len(addrs) > 255:
            raise ValueError(
                f"record {index}: {len(addrs)} {field} exceed the 255 a record can hold"
            )
        for addr in addrs:
            if not 0 <= addr < _U64_END:
                raise ValueError(
                    f"record {index}: {field} address {addr:#x} does not fit in a u64"
                )


def write_trace(path: Union[str, Path], records: Iterable[TraceRecord]) -> int:
    """Write records to ``path``; returns the number of records written.

    The trace is written to a temporary file beside ``path`` and moved into
    place only when every record was written, so a record the format cannot
    hold (a ``ValueError`` naming it) or a failing ``records`` iterator
    leaves nothing at ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    count = 0
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            for record in records:
                _check(count, record)
                pc, num_instrs, loads, stores = record
                fh.write(
                    struct.pack(
                        f"<QBBB{len(loads) + len(stores)}Q",
                        pc, num_instrs, len(loads), len(stores), *loads, *stores,
                    )
                )
                count += 1
        os.replace(tmp, path)
    finally:
        # After a successful replace there is nothing left to remove.
        tmp.unlink(missing_ok=True)
    return count


def read_trace(path: Union[str, Path]) -> Iterator[TraceRecord]:
    """Stream records back from a trace file."""
    new_record = tuple.__new__
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a repro trace file")
        while True:
            header = fh.read(_HEADER.size)
            if not header:
                return
            if len(header) < _HEADER.size:
                raise ValueError(f"{path}: truncated record header")
            pc, num_instrs, num_loads, num_stores = _HEADER.unpack(header)
            count = num_loads + num_stores
            addrs: Tuple[int, ...] = ()
            if count:
                raw = fh.read(8 * count)
                if len(raw) < 8 * count:
                    raise ValueError(f"{path}: truncated address list")
                addrs = struct.unpack(f"<{count}Q", raw)
            # tuple.__new__ skips TraceRecord's Python-level __new__; the
            # record is the same, as in the generators.
            yield new_record(
                TraceRecord, (pc, num_instrs, addrs[:num_loads], addrs[num_loads:])
            )


class FileTraceWorkload(SyntheticWorkload):
    """A workload replayed from a trace file written by :func:`write_trace`.

    The stream loops over the file so warmup + measurement windows longer
    than the capture are still serviceable.
    """

    def __init__(
        self, name: str, path: Union[str, Path], large_page_percent: int = 0, seed: int = 0
    ) -> None:
        super().__init__(name, seed, large_page_percent)
        self.path = Path(path)
        if not self.path.exists():
            raise FileNotFoundError(self.path)

    def record_stream(self) -> Iterator[TraceRecord]:
        while True:
            empty = True
            for record in read_trace(self.path):
                empty = False
                yield record
            if empty:
                raise ValueError(f"{self.path}: trace contains no records")


def capture(workload: SyntheticWorkload, path: Union[str, Path], records: int) -> int:
    """Capture the first ``records`` records of ``workload`` to ``path``."""
    stream = workload.record_stream()
    return write_trace(path, (next(stream) for _ in range(records)))

"""Frozen generator streams and the memory a started stream holds.

The digests lock the first records of the streams the figures use, so a
change to a generator (its RNG draws, batch sizes, address arithmetic or
record layout) fails here directly rather than only through a whole
simulation's golden metrics.  Each digest covers the trace-file encoding
of every record (see ``workloads.trace_io``).
"""

import hashlib
import itertools
import struct
import tracemalloc

import pytest

from repro.common.types import TraceRecord
from repro.workloads.mixes import smt_mixes
from repro.workloads.phased import PhasedWorkload
from repro.workloads.server import server_suite
from repro.workloads.speclike import spec_suite

RECORDS = 50_000


def stream_digest(workload, records=RECORDS):
    digest = hashlib.sha256()
    for pc, num_instrs, loads, stores in itertools.islice(
        workload.record_stream(), records
    ):
        digest.update(
            struct.pack(
                f"<QBBB{len(loads) + len(stores)}Q",
                pc, num_instrs, len(loads), len(stores), *loads, *stores,
            )
        )
    return digest.hexdigest()


FROZEN = {
    "server": (
        lambda: server_suite(1)[0],
        "fe930c6be1a477ff3ba3bd41a45d2bd2f6b219ab2807edff058af7cd9adfeeda",
    ),
    "spec": (
        lambda: spec_suite(1)[0],
        "8901b225b1aee74ba4586d8caaff338bd43dcc895456ccde5412924d37bfb35d",
    ),
    "phased": (
        lambda: PhasedWorkload("phased", seed=7, phase_records=8000),
        "5313f9dd996a9f96c42c627396160f1eb2ab8a6519e7f6f94dfa994771a1eda1",
    ),
    "smt_thread0": (
        lambda: smt_mixes(1)[0].thread0,
        "37450523996ce6a7e060f2215f31fae555dc53d31ba3f2adf6df773c92cbd89c",
    ),
    "smt_thread1": (
        lambda: smt_mixes(1)[0].thread1,
        "978f5cee68ea70f6791e61207ded5211e0e898671063919cf8401bf5d277614d",
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_stream_digest_is_frozen(name):
    make, expected = FROZEN[name]
    assert stream_digest(make()) == expected


@pytest.mark.parametrize("name", ["server", "spec"])
def test_records_are_trace_records(name):
    make, _ = FROZEN[name]
    record = next(make().record_stream())
    assert type(record) is TraceRecord
    assert record == TraceRecord(*record)


def test_started_server_stream_holds_under_3_mb():
    # Held memory after the first record: the function table, the drawn
    # RNG batches and whatever the generator keeps converted to Python
    # values.  Converting whole batches up front held about 6 MB.  A
    # stream of another workload is started first, so one-time costs of
    # the first draw in a process (lazy imports, caches) are not counted.
    warm, workload = server_suite(2)
    next(warm.record_stream())
    tracemalloc.start()
    try:
        stream = workload.record_stream()
        next(stream)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 3_000_000, f"started stream holds {held / 1e6:.2f} MB"

"""Bit-identity lock on the machine wiring.

``perfbench/reference.json`` pins single-core Table 1 cells.  These digests
pin the two other shapes the simulator builds: the N-core machine
(``simulate_multicore`` on 2 cores) and the Section 6.6 split STLB (one
``simulate`` cell per split design of Figure 14).  Any change to how
``System`` or ``MulticoreSystem`` is wired must leave every metric of these
runs bit-identical.

The digest is the one ``perfbench/cells.py`` uses: sha256 over the sorted
``key=repr(value)`` lines, truncated to 20 hex digits.
"""

import hashlib

import pytest

from repro.core.multicore import simulate_multicore
from repro.core.simulator import simulate
from repro.experiments.fig14_split_stlb import _designs
from repro.experiments.runner import config_for
from repro.workloads.server import ServerWorkload

WARMUP = 6_000
MEASURE = 30_000


def digest(metrics):
    text = "\n".join(f"{k}={v!r}" for k, v in sorted(metrics.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def workload(seed, name):
    return ServerWorkload(
        name, seed=seed, code_pages=128, data_pages=3000,
        hot_data_pages=64, warm_pages=800, local_pages=16,
    )


@pytest.mark.parametrize(
    "technique, expected",
    [
        ("lru", "6461ed5ae6772214d5ae"),
        ("itp+xptp", "db15397fe048c2357d7f"),
    ],
)
def test_multicore_two_cores(technique, expected):
    result = simulate_multicore(
        config_for(technique), [workload(11, "a"), workload(12, "b")], WARMUP, MEASURE
    )
    assert digest(result.metrics) == expected


@pytest.mark.parametrize(
    "design, expected",
    [
        ("split-1x LRU", "5e7970084959e86b04fc"),
        ("split-2x LRU", "715c305c2adff02c1a9f"),
    ],
)
def test_split_stlb(design, expected):
    config = dict(_designs(384))[design]
    result = simulate(config, workload(13, "s"), WARMUP, MEASURE)
    assert digest(result.metrics) == expected

"""Figure 10: STLB MPKI breakdown (iMPKI vs dMPKI), LRU vs iTP.

The signature result of iTP: instruction STLB MPKI drops substantially
while data STLB MPKI rises — the deliberate trade Section 4.1 makes.
"""

from __future__ import annotations

from typing import Optional

from ..workloads.mixes import smt_mixes
from ..workloads.server import server_suite
from ..fabric import ParallelRunner
from .reporting import FigureResult
from .runner import MEASURE, WARMUP, compare_single_thread, compare_smt

TECHNIQUES = ("lru", "itp")


def run(
    server_count: int = 4,
    per_category: int = 1,
    warmup: int = WARMUP,
    measure: int = MEASURE,
    runner: Optional[ParallelRunner] = None,
) -> FigureResult:
    result = FigureResult(
        figure="Figure 10",
        description="STLB MPKI breakdown: instruction (iMPKI) vs data (dMPKI), LRU vs iTP",
        headers=["scenario", "technique", "impki", "dmpki"],
        notes=["paper: iTP reduces iMPKI and increases dMPKI in both scenarios"],
    )
    single = compare_single_thread(
        TECHNIQUES, server_suite(server_count), None, warmup, measure, runner=runner
    )
    smt = compare_smt(
        TECHNIQUES, smt_mixes(per_category), None, warmup, measure, runner=runner
    )
    for scenario, comparison in (("1T", single), ("2T", smt)):
        for technique in TECHNIQUES:
            result.add_row(
                scenario,
                technique,
                comparison.mean_metric(technique, "stlb.impki"),
                comparison.mean_metric(technique, "stlb.dmpki"),
            )
    return result

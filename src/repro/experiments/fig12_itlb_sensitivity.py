"""Figure 12: sensitivity of iTP and iTP+xPTP to the ITLB size.

For each ITLB size the baseline is an all-LRU system with the *same*
ITLB.  Expected shape: gains are stable for realistic sizes and shrink
once the ITLB is large enough to absorb the instruction footprint
(paper: noticeable drop at 1024 entries for single-thread).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..common.params import TLBConfig, scaled_config
from ..workloads.mixes import smt_mixes
from ..workloads.server import server_suite
from ..fabric import ParallelRunner
from .reporting import FigureResult
from .runner import MEASURE, WARMUP, compare_single_thread, compare_smt

#: (scaled entries, full-scale equivalent), matching Figure 12's 64..1024.
ITLB_SIZES = ((16, 64), (32, 128), (128, 512), (256, 1024))
TECHNIQUES = ("lru", "itp", "itp+xptp")


def run(
    itlb_sizes: Sequence = ITLB_SIZES,
    server_count: int = 4,
    per_category: int = 1,
    warmup: int = WARMUP,
    measure: int = MEASURE,
    runner: Optional[ParallelRunner] = None,
) -> FigureResult:
    result = FigureResult(
        figure="Figure 12",
        description="iTP / iTP+xPTP geomean IPC improvement across ITLB sizes",
        headers=[
            "scenario", "itlb_entries", "full_scale_equiv", "technique",
            "geomean_ipc_improvement_pct",
        ],
        notes=["paper: consistent gains at 64-512 entries, reduced at 1024 (1T)"],
    )
    for scaled_entries, full_equiv in itlb_sizes:
        itlb = TLBConfig("ITLB", entries=scaled_entries, associativity=4, latency=1)
        base = replace(scaled_config(), itlb=itlb)
        single = compare_single_thread(
            TECHNIQUES, server_suite(server_count), base, warmup, measure, runner=runner
        )
        smt = compare_smt(
            TECHNIQUES, smt_mixes(per_category), base, warmup, measure, runner=runner
        )
        for scenario, comparison in (("1T", single), ("2T", smt)):
            for technique in ("itp", "itp+xptp"):
                result.add_row(
                    scenario, scaled_entries, full_equiv, technique,
                    comparison.geomean_improvement_percent(technique),
                )
    return result

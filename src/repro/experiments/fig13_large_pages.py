"""Figure 13: allocating code and data on 2 MB pages.

Sweeps the fraction of the code+data footprint backed by 2 MB pages
(0/10/50/100 %).  Expected shape: all techniques' gains shrink as 2 MB
coverage grows (fewer STLB misses to optimise), with iTP+xPTP best at
every point and still positive at 100 %.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..workloads.mixes import smt_mixes
from ..workloads.server import server_suite
from ..fabric import ParallelRunner
from .reporting import FigureResult
from .runner import MEASURE, WARMUP, compare_single_thread, compare_smt

PERCENTS = (0, 10, 50, 100)
TECHNIQUES = ("lru", "tdrrip", "ptp", "chirp", "itp+xptp")


def run(
    percents: Sequence[int] = PERCENTS,
    server_count: int = 3,
    per_category: int = 1,
    warmup: int = WARMUP,
    measure: int = MEASURE,
    runner: Optional[ParallelRunner] = None,
) -> FigureResult:
    result = FigureResult(
        figure="Figure 13",
        description="IPC improvement vs LRU as 2MB-page coverage of the footprint grows",
        headers=["scenario", "pct_2mb", "technique", "geomean_ipc_improvement_pct"],
        notes=[
            "paper (1T): iTP+xPTP 18.9/10.1/~0/~0 at 0/10/50/100%; "
            "(2T): 11.4/8.4/5.9/4.2 — gains shrink with 2MB coverage",
        ],
    )
    for pct in percents:
        single = compare_single_thread(
            TECHNIQUES,
            server_suite(server_count, large_page_percent=pct),
            None, warmup, measure, runner=runner,
        )
        smt = compare_smt(
            TECHNIQUES,
            smt_mixes(per_category, large_page_percent=pct),
            None, warmup, measure, runner=runner,
        )
        for scenario, comparison in (("1T", single), ("2T", smt)):
            for technique in TECHNIQUES[1:]:
                result.add_row(
                    scenario, pct, technique,
                    comparison.geomean_improvement_percent(technique),
                )
    return result

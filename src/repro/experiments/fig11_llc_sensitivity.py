"""Figure 11: sensitivity to the LLC replacement policy.

iTP and iTP+xPTP are evaluated with LRU, SHiP and Mockingjay driving LLC
replacement.  Each scenario's baseline uses LRU at STLB and L2C but the
*same* LLC policy, per Section 6.3.  Expected shape: iTP's gains are
stable across LLC policies; iTP+xPTP gains are large with LRU/SHiP and
smaller with Mockingjay.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..common.params import scaled_config
from ..workloads.mixes import smt_mixes
from ..workloads.server import server_suite
from ..fabric import ParallelRunner
from .reporting import FigureResult
from .runner import MEASURE, WARMUP, compare_single_thread, compare_smt

LLC_POLICIES = ("lru", "ship", "mockingjay")
TECHNIQUES = ("lru", "itp", "itp+xptp")


def run(
    server_count: int = 4,
    per_category: int = 1,
    warmup: int = WARMUP,
    measure: int = MEASURE,
    llc_policies: Sequence[str] = LLC_POLICIES,
    runner: Optional[ParallelRunner] = None,
) -> FigureResult:
    result = FigureResult(
        figure="Figure 11",
        description="iTP / iTP+xPTP geomean IPC improvement under different LLC policies",
        headers=["scenario", "llc_policy", "technique", "geomean_ipc_improvement_pct"],
        notes=[
            "paper (1T): iTP 2.2/2.3/1.4 and iTP+xPTP 18.9/15.8/1.6 for LRU/SHiP/Mockingjay",
        ],
    )
    for llc in llc_policies:
        base = scaled_config().with_policies(llc=llc)
        single = compare_single_thread(
            TECHNIQUES, server_suite(server_count), base, warmup, measure, runner=runner
        )
        smt = compare_smt(
            TECHNIQUES, smt_mixes(per_category), base, warmup, measure, runner=runner
        )
        for scenario, comparison in (("1T", single), ("2T", smt)):
            for technique in ("itp", "itp+xptp"):
                result.add_row(
                    scenario, llc, technique,
                    comparison.geomean_improvement_percent(technique),
                )
    return result

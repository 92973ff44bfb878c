"""Figure 9: MPKI and average miss latency at the STLB, L2C and LLC.

Explains Figure 8: iTP+xPTP slightly cuts STLB MPKI, halves STLB miss
latency (data walks become L2C hits), raises L2C MPKI while cutting L2C
miss latency, and lowers LLC MPKI.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..workloads.mixes import smt_mixes
from ..workloads.server import server_suite
from ..fabric import ParallelRunner
from .reporting import FigureResult
from .runner import (
    MEASURE,
    POLICY_MATRIX,
    WARMUP,
    Comparison,
    compare_single_thread,
    compare_smt,
)

LEVELS = ("stlb", "l2c", "llc")


def as_figure(comparison: Comparison, figure: str, description: str) -> FigureResult:
    result = FigureResult(
        figure=figure,
        description=description,
        headers=[
            "technique",
            "stlb_mpki", "stlb_avg_miss_lat",
            "l2c_mpki", "l2c_dtmpki", "l2c_avg_miss_lat",
            "llc_mpki", "llc_avg_miss_lat",
        ],
        notes=[
            "paper (1T): iTP+xPTP cuts STLB miss latency 170.9->92.3, raises L2C MPKI "
            "30.6->46.5, cuts LLC MPKI 13.8->8.4 and L2C miss latency by 47.5%",
        ],
    )
    for technique in comparison.results:
        row = [technique]
        for level in LEVELS:
            row.append(comparison.mean_metric(technique, f"{level}.mpki"))
            if level == "l2c":
                # Section 6.2: the data-PTE component of L2C misses is the
                # quantity xPTP exists to reduce.
                row.append(comparison.mean_metric(technique, "l2c.dtmpki"))
            row.append(comparison.mean_metric(technique, f"{level}.avg_miss_latency"))
        result.add_row(*row)
    return result


def run(
    techniques: Optional[Sequence[str]] = None,
    server_count: int = 4,
    per_category: int = 1,
    warmup: int = WARMUP,
    measure: int = MEASURE,
    runner: Optional[ParallelRunner] = None,
) -> Sequence[FigureResult]:
    techniques = list(techniques or POLICY_MATRIX)
    single = compare_single_thread(
        techniques, server_suite(server_count), None, warmup, measure, runner=runner
    )
    smt = compare_smt(
        techniques, smt_mixes(per_category), None, warmup, measure, runner=runner
    )
    return (
        as_figure(single, "Figure 9 (1T)", "MPKI / avg miss latency per level, single thread"),
        as_figure(smt, "Figure 9 (2T)", "MPKI / avg miss latency per level, SMT"),
    )

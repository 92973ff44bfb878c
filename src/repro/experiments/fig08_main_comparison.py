"""Figure 8: the headline comparison.

IPC improvement over an all-LRU baseline for every Table 2 technique, in
both the single-hardware-thread (8a) and two-hardware-thread SMT (8b)
scenarios.  The paper's qualitative result:

    iTP+xPTP > TDRRIP > PTP > iTP > CHiRP ≈ LRU   (single thread)

with iTP+xPTP best under SMT as well.
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


def run_single_thread(
    techniques: Optional[Sequence[str]] = None,
    server_count: int = 6,
    warmup: int = WARMUP,
    measure: int = MEASURE,
    runner: Optional[ParallelRunner] = None,
) -> Comparison:
    techniques = list(techniques or POLICY_MATRIX)
    return compare_single_thread(
        techniques, server_suite(server_count), None, warmup, measure, runner=runner
    )


def run_smt(
    techniques: Optional[Sequence[str]] = None,
    per_category: int = 2,
    warmup: int = WARMUP,
    measure: int = MEASURE,
    runner: Optional[ParallelRunner] = None,
) -> Comparison:
    techniques = list(techniques or POLICY_MATRIX)
    return compare_smt(
        techniques, smt_mixes(per_category), None, warmup, measure, runner=runner
    )


def as_figure(comparison: Comparison, figure: str, description: str) -> FigureResult:
    """Summarise a comparison as the violin-style distribution of Figure 8."""
    result = FigureResult(
        figure=figure,
        description=description,
        headers=[
            "technique", "geomean_ipc_improvement_pct",
            "min_pct", "p25_pct", "median_pct", "p75_pct", "max_pct",
        ],
        notes=[
            "paper (1T): iTP+xPTP 18.9, TDRRIP 9.3, PTP 7.1, iTP 2.2, CHiRP ~0",
            "paper (2T): iTP+xPTP 11.4, TDRRIP 8.5, PTP ~0, iTP 0.3",
        ],
    )

    def percentile(sorted_values, q):
        if not sorted_values:
            return 0.0
        index = q * (len(sorted_values) - 1)
        low = int(index)
        high = min(low + 1, len(sorted_values) - 1)
        frac = index - low
        return sorted_values[low] * (1 - frac) + sorted_values[high] * frac

    for technique in comparison.results:
        speedups = sorted(comparison.speedups(technique))
        as_pct = [100.0 * (s - 1.0) for s in speedups]
        result.add_row(
            technique,
            comparison.geomean_improvement_percent(technique),
            as_pct[0],
            percentile(as_pct, 0.25),
            percentile(as_pct, 0.5),
            percentile(as_pct, 0.75),
            as_pct[-1],
        )
    return result


def smt_category_breakdown(
    techniques: Optional[Sequence[str]] = None,
    per_category: int = 2,
    warmup: int = WARMUP,
    measure: int = MEASURE,
    runner: Optional[ParallelRunner] = None,
) -> FigureResult:
    """Geomean IPC improvement per SMT mix category (Section 5.2).

    The paper aggregates all 75 mixes into Figure 8b; this breakdown shows
    the expected gradient — intense mixes (two high-STLB-pressure threads)
    benefit most from translation-aware policies, relaxed mixes least.
    """
    techniques = list(techniques or ("lru", "tdrrip", "itp", "itp+xptp"))
    mixes = smt_mixes(per_category)
    comparison = compare_smt(techniques, mixes, None, warmup, measure, runner=runner)
    by_category = {}
    for mix in mixes:
        by_category.setdefault(mix.category, []).append(mix.name)

    result = FigureResult(
        figure="Figure 8b (by category)",
        description="SMT geomean IPC improvement per co-location category",
        headers=["category", "technique", "geomean_ipc_improvement_pct"],
        notes=["expected gradient: intense >= medium >= relaxed for iTP+xPTP"],
    )
    from .runner import geomean

    base = comparison.results["lru"]
    for category, names in by_category.items():
        for technique in techniques[1:]:
            ratios = [
                comparison.results[technique][name].ipc / base[name].ipc
                for name in names
            ]
            result.add_row(category, technique, 100.0 * (geomean(ratios) - 1.0))
    return result


def run(
    server_count: int = 6,
    per_category: int = 2,
    warmup: int = WARMUP,
    measure: int = MEASURE,
    runner: Optional[ParallelRunner] = None,
) -> Sequence[FigureResult]:
    single = run_single_thread(None, server_count, warmup, measure, runner=runner)
    smt = run_smt(None, per_category, warmup, measure, runner=runner)
    return (
        as_figure(single, "Figure 8a", "IPC improvement vs LRU, single hardware thread"),
        as_figure(smt, "Figure 8b", "IPC improvement vs LRU, two hardware threads (SMT)"),
    )

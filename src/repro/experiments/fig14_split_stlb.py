"""Figure 14: unified STLB with iTP+xPTP vs split STLB designs.

Compares, against a baseline unified STLB with LRU (scaled: 384 entries):

* unified STLB + iTP+xPTP (same capacity);
* split STLB (half capacity each for instruction/data) with LRU;
* 2x-capacity variants of both.

Expected shape (Section 6.6): an equal-capacity split STLB is slightly
behind unified iTP+xPTP; doubling the split STLB's capacity roughly
matches the 1x unified iTP+xPTP; the 2x unified STLB with iTP+xPTP beats
the 2x split design.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..common.params import TLBConfig, scaled_config
from ..workloads.server import server_suite
from ..fabric import ParallelRunner, SimJob, run_jobs
from .reporting import FigureResult
from .runner import MEASURE, WARMUP, geomean


def _stlb(entries: int, name: str = "STLB") -> TLBConfig:
    return TLBConfig(name, entries=entries, associativity=12, latency=8, mshr_entries=16)


def _designs(base_entries: int) -> Sequence:
    base = scaled_config()
    return (
        ("unified-1x LRU (baseline)", replace(base, stlb=_stlb(base_entries))),
        (
            "unified-1x iTP+xPTP",
            replace(base, stlb=_stlb(base_entries)).with_policies(stlb="itp", l2c="xptp"),
        ),
        (
            "split-1x LRU",
            replace(
                base,
                stlb=_stlb(base_entries // 2, "DSTLB"),
                istlb=_stlb(base_entries // 2, "ISTLB"),
            ),
        ),
        (
            "unified-2x iTP+xPTP",
            replace(base, stlb=_stlb(base_entries * 2)).with_policies(stlb="itp", l2c="xptp"),
        ),
        (
            "split-2x LRU",
            replace(
                base,
                stlb=_stlb(base_entries, "DSTLB"),
                istlb=_stlb(base_entries, "ISTLB"),
            ),
        ),
    )


def run(
    base_entries: int = 384,
    server_count: int = 4,
    warmup: int = WARMUP,
    measure: int = MEASURE,
    runner: Optional[ParallelRunner] = None,
) -> FigureResult:
    result = FigureResult(
        figure="Figure 14",
        description="Unified STLB with iTP+xPTP vs split STLB (scaled entries)",
        headers=["design", "geomean_ipc_improvement_pct"],
        notes=[
            "paper: split-1x slightly behind unified-1x iTP+xPTP; unified-2x iTP+xPTP "
            "beats split-2x",
        ],
    )
    workloads = server_suite(server_count)
    designs = _designs(base_entries)
    jobs = [
        SimJob(cfg, (wl,), warmup, measure, label=label)
        for label, cfg in designs
        for wl in workloads
    ]
    results = iter(run_jobs(jobs, runner))
    rows = []
    for label, cfg in designs:
        ipcs = {wl.name: next(results).ipc for wl in workloads}
        rows.append((label, ipcs))
    baseline_ipc = rows[0][1]
    for label, ipcs in rows:
        ratios = [ipcs[w] / baseline_ipc[w] for w in ipcs]
        result.add_row(label, 100.0 * (geomean(ratios) - 1.0))
    return result

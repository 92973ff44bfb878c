"""Figure 1: cycles spent on instruction address translation vs ITLB size.

The paper sweeps the ITLB from 8 to 1024 entries and shows that Qualcomm
Server workloads spend ~12.5 % of cycles on instruction address
translation at realistic sizes while SPEC spends ~0.03 %.  We sweep the
scaled equivalents (×1/4) and report the fraction of total cycles spent
in instruction translation per workload class.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..common.params import TLBConfig, scaled_config
from ..workloads.server import server_suite
from ..workloads.speclike import spec_suite
from ..fabric import ParallelRunner, SimJob, run_jobs
from .reporting import FigureResult
from .runner import MEASURE, WARMUP

#: scaled ITLB entry counts and the full-scale sizes they stand for.
ITLB_SIZES = ((8, 32), (16, 64), (32, 128), (128, 512), (256, 1024))


def run(
    itlb_sizes: Sequence = ITLB_SIZES,
    server_count: int = 3,
    spec_count: int = 2,
    warmup: int = WARMUP,
    measure: int = MEASURE,
    runner: Optional[ParallelRunner] = None,
) -> FigureResult:
    result = FigureResult(
        figure="Figure 1",
        description="% of cycles in instruction address translation vs ITLB size",
        headers=["class", "itlb_entries", "full_scale_equiv", "pct_cycles_instr_translation"],
        notes=["paper: server ~12.5% at 64-128 entries, SPEC ~0.03%; shrinks as ITLB grows"],
    )
    suites = [
        ("server", server_suite(server_count)),
        ("spec", spec_suite(spec_count)),
    ]
    # Fan the full size x suite sweep out as one batch of jobs.
    jobs = []
    for scaled_entries, full_equiv in itlb_sizes:
        itlb = TLBConfig("ITLB", entries=scaled_entries, associativity=4, latency=1)
        cfg = replace(scaled_config(), itlb=itlb)
        for label, workloads in suites:
            jobs.extend(
                SimJob(cfg, (wl,), warmup, measure, label=f"itlb{scaled_entries}")
                for wl in workloads
            )
    results = iter(run_jobs(jobs, runner))
    for scaled_entries, full_equiv in itlb_sizes:
        for label, workloads in suites:
            fractions = []
            for _ in workloads:
                r = next(results)
                fractions.append(
                    100.0 * r.get("translation.instr_cycles") / max(1.0, r.get("cycles"))
                )
            result.add_row(label, scaled_entries, full_equiv, sum(fractions) / len(fractions))
    return result

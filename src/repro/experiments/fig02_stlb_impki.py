"""Figure 2: STLB MPKI due to instruction references, server vs SPEC.

The paper measures up to ~0.9 instruction STLB MPKI for Qualcomm Server
workloads and near-zero for SPEC (whose code fits the ITLB).  We report
the per-workload instruction STLB MPKI and the class means on the scaled
system.
"""

from __future__ import annotations

from typing import Optional

from ..common.params import scaled_config
from ..workloads.server import server_suite
from ..workloads.speclike import spec_suite
from ..fabric import ParallelRunner, SimJob, run_jobs
from .reporting import FigureResult
from .runner import MEASURE, WARMUP


def run(
    server_count: int = 4,
    spec_count: int = 3,
    warmup: int = WARMUP,
    measure: int = MEASURE,
    runner: Optional[ParallelRunner] = None,
) -> FigureResult:
    result = FigureResult(
        figure="Figure 2",
        description="STLB MPKI for instruction references (server vs SPEC)",
        headers=["class", "workload", "stlb_impki"],
        notes=["paper: server up to 0.9 iMPKI, SPEC negligible"],
    )
    cfg = scaled_config()
    suites = [
        ("server", server_suite(server_count)),
        ("spec", spec_suite(spec_count)),
    ]
    jobs = [
        SimJob(cfg, (wl,), warmup, measure, label=label)
        for label, workloads in suites
        for wl in workloads
    ]
    results = iter(run_jobs(jobs, runner))
    for label, workloads in suites:
        values = []
        for wl in workloads:
            impki = next(results).get("stlb.impki")
            values.append(impki)
            result.add_row(label, wl.name, impki)
        result.add_row(label, "MEAN", sum(values) / len(values))
    return result

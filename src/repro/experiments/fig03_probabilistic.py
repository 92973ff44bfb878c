"""Figure 3: IPC improvement of probabilistic instruction-priority LRU.

The motivation study: a modified STLB LRU evicts a *data* translation
with probability P (an *instruction* translation otherwise).  High P
(favouring instruction retention) should win, low P should lose —
exactly the asymmetry iTP exploits.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..common.params import scaled_config
from ..workloads.server import server_suite
from ..fabric import ParallelRunner, SimJob, run_jobs
from .reporting import FigureResult
from .runner import MEASURE, WARMUP, geomean

P_VALUES = (0.2, 0.4, 0.6, 0.8)


def run(
    p_values: Sequence[float] = P_VALUES,
    server_count: int = 4,
    warmup: int = WARMUP,
    measure: int = MEASURE,
    runner: Optional[ParallelRunner] = None,
) -> FigureResult:
    result = FigureResult(
        figure="Figure 3",
        description="IPC improvement of probabilistic LRU (evict data with prob P) vs LRU",
        headers=["P", "workload", "ipc_improvement_pct"],
        notes=["paper: P=0.8 gains a few %, P=0.2 loses; monotonic in P"],
    )
    base = scaled_config()
    workloads = server_suite(server_count)
    # Baseline and every P value go out as one batch.
    jobs = [SimJob(base, (wl,), warmup, measure, label="lru") for wl in workloads]
    for p in p_values:
        cfg = replace(base.with_policies(stlb="problru"), problru_p=p)
        jobs.extend(
            SimJob(cfg, (wl,), warmup, measure, label=f"problru_p{p}")
            for wl in workloads
        )
    results = iter(run_jobs(jobs, runner))
    baseline = {wl.name: next(results).ipc for wl in workloads}
    for p in p_values:
        ratios = []
        for wl in workloads:
            ratio = next(results).ipc / baseline[wl.name]
            ratios.append(ratio)
            result.add_row(p, wl.name, 100.0 * (ratio - 1.0))
        result.add_row(p, "GEOMEAN", 100.0 * (geomean(ratios) - 1.0))
    return result

"""Ablation: iTP's N/M and xPTP's K (Section 5.1 parameter exploration).

The paper reports that N and M cause little variation while K matters
most, with mid-stack values (K=6, K=8) best.  This driver regenerates the
sweep on the scaled system.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..common.params import ITPConfig, XPTPConfig, scaled_config
from ..workloads.server import server_suite
from ..fabric import ParallelRunner, SimJob, run_jobs
from .reporting import FigureResult
from .runner import MEASURE, WARMUP, geomean

NM_VALUES = ((1, 2), (2, 4), (2, 8), (4, 8), (6, 8))
K_VALUES = (1, 2, 4, 6, 8)


def run_nm(
    nm_values: Sequence = NM_VALUES,
    server_count: int = 2,
    warmup: int = WARMUP,
    measure: int = MEASURE,
    runner: Optional[ParallelRunner] = None,
) -> FigureResult:
    result = FigureResult(
        figure="Ablation N/M",
        description="iTP insertion depth N and data-promotion height M sweep (iTP alone)",
        headers=["N", "M", "geomean_ipc_improvement_pct", "mean_impki", "mean_dmpki"],
        notes=["paper: N/M cause no significant performance variation"],
    )
    base = scaled_config()
    workloads = server_suite(server_count)
    jobs = [SimJob(base, (wl,), warmup, measure, label="lru") for wl in workloads]
    for n, m in nm_values:
        cfg = replace(
            base.with_policies(stlb="itp"),
            itp=ITPConfig(insert_depth_n=n, data_promote_m=m),
        )
        jobs.extend(
            SimJob(cfg, (wl,), warmup, measure, label=f"itp N={n} M={m}")
            for wl in workloads
        )
    results = iter(run_jobs(jobs, runner))
    baseline = {wl.name: next(results).ipc for wl in workloads}
    for n, m in nm_values:
        ratios, impki, dmpki = [], [], []
        for wl in workloads:
            r = next(results)
            ratios.append(r.ipc / baseline[wl.name])
            impki.append(r.get("stlb.impki"))
            dmpki.append(r.get("stlb.dmpki"))
        result.add_row(
            n, m, 100.0 * (geomean(ratios) - 1.0),
            sum(impki) / len(impki), sum(dmpki) / len(dmpki),
        )
    return result


def run_k(
    k_values: Sequence[int] = K_VALUES,
    server_count: int = 2,
    warmup: int = WARMUP,
    measure: int = MEASURE,
    runner: Optional[ParallelRunner] = None,
) -> FigureResult:
    result = FigureResult(
        figure="Ablation K",
        description="xPTP eviction threshold K sweep (iTP+xPTP)",
        headers=["K", "geomean_ipc_improvement_pct", "mean_l2c_dtmpki"],
        notes=["paper: K has the highest impact; mid-stack values (6, 8) best"],
    )
    base = scaled_config()
    workloads = server_suite(server_count)
    jobs = [SimJob(base, (wl,), warmup, measure, label="lru") for wl in workloads]
    for k in k_values:
        cfg = replace(
            base.with_policies(stlb="itp", l2c="xptp"), xptp=XPTPConfig(k=k)
        )
        jobs.extend(
            SimJob(cfg, (wl,), warmup, measure, label=f"itp+xptp K={k}")
            for wl in workloads
        )
    results = iter(run_jobs(jobs, runner))
    baseline = {wl.name: next(results).ipc for wl in workloads}
    for k in k_values:
        ratios, dtmpki = [], []
        for wl in workloads:
            r = next(results)
            ratios.append(r.ipc / baseline[wl.name])
            dtmpki.append(r.get("l2c.dtmpki"))
        result.add_row(
            k, 100.0 * (geomean(ratios) - 1.0), sum(dtmpki) / len(dtmpki)
        )
    return result

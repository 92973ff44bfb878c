"""Extension study: STLB prefetching with and without iTP+xPTP (Section 7).

The paper states iTP is orthogonal to STLB prefetching.  This driver
measures a sequential and a distance translation prefetcher on the LRU
baseline and on top of iTP+xPTP.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..common.params import scaled_config
from ..workloads.server import server_suite
from ..fabric import ParallelRunner, SimJob, run_jobs
from .reporting import FigureResult
from .runner import MEASURE, WARMUP, geomean

SCHEMES = (
    ("lru", {}, None),
    ("lru+seq-pf", {}, "sequential"),
    ("lru+dist-pf", {}, "distance"),
    ("itp+xptp", {"stlb": "itp", "l2c": "xptp"}, None),
    ("itp+xptp+seq-pf", {"stlb": "itp", "l2c": "xptp"}, "sequential"),
)


def run(
    schemes: Sequence = SCHEMES,
    server_count: int = 3,
    warmup: int = WARMUP,
    measure: int = MEASURE,
    runner: Optional[ParallelRunner] = None,
) -> FigureResult:
    result = FigureResult(
        figure="Extension: STLB prefetching",
        description="Translation prefetchers on LRU and on iTP+xPTP (Section 7)",
        headers=[
            "scheme", "geomean_ipc_improvement_pct", "mean_stlb_mpki",
            "mean_pf_fills_pki",
        ],
        notes=["paper: iTP is orthogonal to STLB prefetching (no numbers given)"],
    )
    base = scaled_config()
    workloads = server_suite(server_count)
    jobs = [SimJob(base, (wl,), warmup, measure, label="lru") for wl in workloads]
    for name, policies, prefetcher in schemes:
        cfg = replace(base.with_policies(**policies), stlb_prefetcher=prefetcher)
        jobs.extend(
            SimJob(cfg, (wl,), warmup, measure, label=name) for wl in workloads
        )
    results = iter(run_jobs(jobs, runner))
    baseline = {wl.name: next(results).ipc for wl in workloads}
    for name, policies, prefetcher in schemes:
        ratios, mpki, fills = [], [], []
        for wl in workloads:
            r = next(results)
            ratios.append(r.ipc / baseline[wl.name])
            mpki.append(r.get("stlb.mpki"))
            fills.append(1000.0 * r.get("stlb.prefetch_fills") / r.get("instructions"))
        result.add_row(
            name,
            100.0 * (geomean(ratios) - 1.0),
            sum(mpki) / len(mpki),
            sum(fills) / len(fills),
        )
    return result

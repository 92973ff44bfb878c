"""Figure 4: L2C/LLC MPKI breakdown, LRU vs Keep-Instructions (P=0.8).

Decomposes cache misses into the paper's four categories — data (dMPKI),
instruction (iMPKI), data-translation page walks (dtMPKI) and
instruction-translation page walks (itMPKI) — and shows that favouring
instruction translations in the STLB *increases* dtMPKI (Finding 3),
which is what motivates xPTP.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..common.params import scaled_config
from ..workloads.server import server_suite
from ..fabric import ParallelRunner, SimJob, run_jobs
from .reporting import FigureResult
from .runner import MEASURE, WARMUP


def run(
    server_count: int = 4,
    warmup: int = WARMUP,
    measure: int = MEASURE,
    runner: Optional[ParallelRunner] = None,
) -> FigureResult:
    result = FigureResult(
        figure="Figure 4",
        description="MPKI breakdown at L2C and LLC: LRU vs Keep-Instructions (P=0.8)",
        headers=["level", "policy", "dMPKI", "iMPKI", "dtMPKI", "itMPKI", "dt_refs_pki"],
        notes=[
            "paper: dtMPKI increases under Keep-Instructions (Finding 3)",
            "model note: the extra data page walks mostly re-hit resident PTE "
            "lines here, so the pressure increase shows up in dt references "
            "per kilo-instruction (dt_refs_pki) more than in dtMPKI",
        ],
    )
    base = scaled_config()
    keep_instr = replace(base.with_policies(stlb="problru"), problru_p=0.8)
    workloads = server_suite(server_count)
    policies = (("LRU", base), ("KeepInstr(P=0.8)", keep_instr))

    jobs = [
        SimJob(cfg, (wl,), warmup, measure, label=policy_name)
        for policy_name, cfg in policies
        for wl in workloads
    ]
    results = iter(run_jobs(jobs, runner))
    for policy_name, cfg in policies:
        sums = {lvl: {c: 0.0 for c in ("d", "i", "dt", "it")} for lvl in ("l2c", "llc")}
        dt_refs_pki = 0.0
        for wl in workloads:
            r = next(results)
            for lvl in ("l2c", "llc"):
                for cat in ("d", "i", "dt", "it"):
                    sums[lvl][cat] += r.get(f"{lvl}.{cat}mpki")
            dt_refs_pki += 1000.0 * r.get("ptw.data_walk_refs") / r.get("instructions")
        n = len(workloads)
        for lvl in ("l2c", "llc"):
            result.add_row(
                lvl.upper(),
                policy_name,
                sums[lvl]["d"] / n,
                sums[lvl]["i"] / n,
                sums[lvl]["dt"] / n,
                sums[lvl]["it"] / n,
                dt_refs_pki / n,
            )
    return result

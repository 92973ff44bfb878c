"""Ablation: the adaptive xPTP/LRU switch (Section 4.3.1).

On a phase-alternating workload (high STLB pressure ↔ quiet), compares:

* all-LRU baseline;
* iTP+xPTP with xPTP forced always-on (adaptive disabled);
* iTP+xPTP with the adaptive switch at several T1 thresholds.

What the ablation shows is the switch's mechanism: the controller tracks
the phases (xPTP is enabled for roughly half the windows, and raising T1
makes it more conservative), and the adaptive scheme still improves on
LRU while staying within a few points of always-on.  It does not beat
always-on here: the simplified timing model underprices the L2C capacity
an always-on xPTP takes from the quiet phases (EXPERIMENTS.md,
deviation 3).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..common.params import AdaptiveConfig, scaled_config
from ..workloads.phased import PhasedWorkload
from ..fabric import ParallelRunner, SimJob, run_jobs
from .reporting import FigureResult
from .runner import WARMUP

T1_VALUES = (0, 1, 2, 4)


def build_jobs(
    t1_values: Sequence[int] = T1_VALUES,
    warmup: int = WARMUP,
    measure: int = 300_000,
    phase_records: int = 12_000,
) -> list:
    """The ablation's job matrix, without running it."""
    wl = PhasedWorkload("phased", seed=7, phase_records=phase_records)
    base = scaled_config()
    always_on = replace(
        base.with_policies(stlb="itp", l2c="xptp"),
        adaptive=AdaptiveConfig(enabled=False),
    )
    jobs = [
        SimJob(base, (wl,), warmup, measure, label="lru"),
        SimJob(always_on, (wl,), warmup, measure, label="always-on"),
    ]
    for t1 in t1_values:
        cfg = replace(
            base.with_policies(stlb="itp", l2c="xptp"),
            adaptive=AdaptiveConfig(enabled=True, t1_misses=t1),
        )
        jobs.append(SimJob(cfg, (wl,), warmup, measure, label=f"adaptive T1={t1}"))
    return jobs


def run(
    t1_values: Sequence[int] = T1_VALUES,
    warmup: int = WARMUP,
    measure: int = 300_000,
    phase_records: int = 12_000,
    runner: Optional[ParallelRunner] = None,
) -> FigureResult:
    result = FigureResult(
        figure="Ablation adaptive",
        description="Adaptive xPTP/LRU switch on a phase-alternating workload",
        headers=["scheme", "ipc_improvement_pct", "windows_xptp_enabled_pct"],
        notes=[
            "expected: adaptive tracks the phases (xPTP on for ~half the "
            "windows, fewer as T1 rises), beats LRU, and stays within a few "
            "points of always-on"
        ],
    )
    jobs = build_jobs(
        t1_values, warmup=warmup, measure=measure,
        phase_records=phase_records,
    )
    results = run_jobs(jobs, runner)
    baseline = results[0].ipc
    result.add_row("always-on", 100.0 * (results[1].ipc / baseline - 1.0), 100.0)
    for t1, r in zip(t1_values, results[2:]):
        enabled_pct = 100.0 * r.get("adaptive.windows_enabled", 0.0) / max(
            1.0, r.get("adaptive.windows_total", 1.0)
        )
        result.add_row(f"adaptive T1={t1}", 100.0 * (r.ipc / baseline - 1.0), enabled_pct)
    return result

"""Shared experiment machinery.

Encodes Table 2 (the policy matrix) and provides comparison helpers used
by every figure driver.  All experiments run on the 1/4-scale system of
:func:`repro.common.params.scaled_config` against the scaled workload
suites (DESIGN.md §3).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..common.params import SystemConfig, scaled_config
from ..common.registry import Registry
from ..core.simulator import SimulationResult
from ..workloads.base import SyntheticWorkload
from ..workloads.mixes import SMTMix
from ..fabric import ParallelRunner, SimJob, run_iter

#: Default simulation windows (instructions).  The paper uses 50 M + 100 M;
#: these are scaled for Python speed (DESIGN.md §3).
WARMUP = 60_000
MEASURE = 200_000


@dataclass(frozen=True)
class PolicySuite:
    """One Table 2 technique: a named set of per-structure policies."""

    name: str
    stlb: Optional[str] = None
    l2c: Optional[str] = None
    llc: Optional[str] = None
    description: str = ""

    def policies(self) -> Dict[str, str]:
        """The non-default structure → policy assignments."""
        return {
            key: value
            for key, value in (("stlb", self.stlb), ("l2c", self.l2c), ("llc", self.llc))
            if value is not None
        }

    def apply(self, config: SystemConfig) -> SystemConfig:
        """A copy of ``config`` with this suite's policies substituted."""
        return config.with_policies(stlb=self.stlb, l2c=self.l2c, llc=self.llc)

    def summary(self) -> str:
        """Short human-readable policy listing for ``--list`` output."""
        policies = self.policies()
        return ", ".join(f"{k}={v}" for k, v in policies.items()) or "all-LRU baseline"


#: The process-wide technique registry, in Table 2 order.
SUITES: Registry[PolicySuite] = Registry("technique")

for _suite in (
    PolicySuite("lru", description="all-LRU baseline"),
    PolicySuite("tdrrip", l2c="tdrrip", description="TLB-aware DRRIP at the L2C"),
    PolicySuite("ptp", l2c="ptp", description="PTE-priority insertion at the L2C"),
    PolicySuite("chirp", stlb="chirp", description="history-based instruction reuse STLB"),
    PolicySuite("chirp+tdrrip", stlb="chirp", l2c="tdrrip",
                description="CHiRP with TLB-aware DRRIP"),
    PolicySuite("chirp+ptp", stlb="chirp", l2c="ptp", description="CHiRP with PTP"),
    PolicySuite("itp", stlb="itp", description="instruction-aware STLB replacement"),
    PolicySuite("itp+tdrrip", stlb="itp", l2c="tdrrip", description="iTP with TLB-aware DRRIP"),
    PolicySuite("itp+ptp", stlb="itp", l2c="ptp", description="iTP with PTP"),
    PolicySuite("itp+xptp", stlb="itp", l2c="xptp",
                description="the paper's full cooperative proposal"),
):
    SUITES.register(_suite.name, _suite)


def suite_for(technique: str) -> PolicySuite:
    """Look up a Table 2 technique; unknown names list every known suite."""
    return SUITES.get(technique)


#: Table 2 of the paper: technique -> replacement policy per structure
#: (structures not listed use LRU), derived from :data:`SUITES`.
POLICY_MATRIX: "OrderedDict[str, Dict[str, str]]" = OrderedDict(
    (name, suite.policies()) for name, suite in SUITES.items()
)


def config_for(technique: str, base: Optional[SystemConfig] = None) -> SystemConfig:
    """System configuration for a Table 2 technique name.

    Unknown techniques raise a ``ValueError`` whose candidate list comes
    from the suite registry itself.
    """
    suite = suite_for(technique)
    base = base or scaled_config()
    return suite.apply(base)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean; empty input returns 0."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Comparison:
    """Results of running several techniques over a workload set."""

    baseline: str
    # technique -> workload name -> result
    results: Dict[str, Dict[str, SimulationResult]] = field(default_factory=dict)

    def speedups(self, technique: str) -> List[float]:
        """Per-workload IPC ratios vs the baseline technique."""
        base = self.results[self.baseline]
        return [
            self.results[technique][w].ipc / base[w].ipc
            for w in self.results[technique]
            if base[w].ipc > 0
        ]

    def geomean_speedup(self, technique: str) -> float:
        return geomean(self.speedups(technique))

    def geomean_improvement_percent(self, technique: str) -> float:
        return 100.0 * (self.geomean_speedup(technique) - 1.0)

    def mean_metric(self, technique: str, metric: str) -> float:
        rows = self.results[technique]
        if not rows:
            return 0.0
        return sum(r.get(metric) for r in rows.values()) / len(rows)


def _collect(
    jobs: List[SimJob],
    slots: Sequence[tuple],
    techniques: Sequence[str],
    baseline: str,
    runner: Optional[ParallelRunner],
) -> Comparison:
    """Stream the matrix and place results by index.

    ``run_iter`` yields cells as they settle (cached cells immediately,
    simulated cells in completion order), so progress is visible while the
    matrix is still running; placement by index keeps the result grid
    independent of completion order.
    """
    grid: List[Optional[SimulationResult]] = [None] * len(jobs)
    for index, _cell, result in run_iter(jobs, runner):
        grid[index] = result
    comparison = Comparison(baseline=baseline)
    for technique in techniques:
        comparison.results[technique] = {}
    for (technique, name), result in zip(slots, grid):
        assert result is not None  # fail-fast/continue both raise before here
        comparison.results[technique][name] = result
    return comparison


def compare_single_thread(
    techniques: Sequence[str],
    workloads: Sequence[SyntheticWorkload],
    base: Optional[SystemConfig] = None,
    warmup: int = WARMUP,
    measure: int = MEASURE,
    baseline: str = "lru",
    runner: Optional[ParallelRunner] = None,
) -> Comparison:
    """Run each technique over each workload on one hardware thread.

    The full technique x workload matrix is fanned out through ``runner``
    (default: the process-wide runner — serial unless configured otherwise).
    """
    jobs = [
        SimJob(config_for(technique, base), (wl,), warmup, measure, label=technique)
        for technique in techniques
        for wl in workloads
    ]
    slots = [(technique, wl.name) for technique in techniques for wl in workloads]
    return _collect(jobs, slots, techniques, baseline, runner)


def compare_smt(
    techniques: Sequence[str],
    mixes: Sequence[SMTMix],
    base: Optional[SystemConfig] = None,
    warmup: int = WARMUP,
    measure: int = MEASURE,
    baseline: str = "lru",
    runner: Optional[ParallelRunner] = None,
) -> Comparison:
    """Run each technique over each two-thread mix on the SMT core."""
    jobs = [
        SimJob(config_for(technique, base), mix.workloads, warmup, measure, label=technique)
        for technique in techniques
        for mix in mixes
    ]
    slots = [(technique, mix.name) for technique in techniques for mix in mixes]
    return _collect(jobs, slots, techniques, baseline, runner)

"""Top-level simulation drivers.

``simulate`` runs a single-thread workload; ``simulate_smt`` co-locates two
workloads on an SMT core (Section 5.1): records are fetched round-robin,
one fetch group per thread per turn, with all caches, TLBs, the walker and
DRAM shared.  Cycle accounting overlaps the two threads' record costs —
the longer record hides most of the shorter one, modelling latency hiding
across hardware threads while shared-structure contention emerges naturally
from the shared state.

Both drivers follow the paper's methodology: a warmup window that touches
state but not statistics, then a measurement window (Section 5.2 uses 50 M
warmup + 100 M measured; defaults here are scaled down for Python speed —
DESIGN.md §3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Union

from ..common.params import SystemConfig
from ..common.stats import SimStats
from ..common.types import PageSize
from ..kernel import BatchedEngine, resolve_engine
from ..workloads.base import SyntheticWorkload
from .cpu import Core, THREAD_TAG_SHIFT
from .system import System

DEFAULT_WARMUP = 50_000
DEFAULT_MEASURE = 200_000


@dataclass
class SimulationResult:
    """Measurement-window statistics plus convenience accessors."""

    workload: str
    config_label: str
    stats: SimStats
    metrics: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.metrics:
            self.metrics = self.stats.report()

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    def __getitem__(self, key: str) -> float:
        return self.metrics[key]

    def get(self, key: str, default: float = 0.0) -> float:
        return self.metrics.get(key, default)


def _export_adaptive(system: System, stats: SimStats) -> None:
    """Surface adaptive-controller counters in the metric report."""
    if not system.adaptive.active:
        return
    stats.counters["adaptive.windows_total"] = system.adaptive.windows_total
    stats.counters["adaptive.windows_enabled"] = system.adaptive.windows_enabled
    stats.counters["adaptive.switches"] = system.adaptive.switches


def _export_structures(system: System, stats: SimStats) -> None:
    """Surface structure-owned counters (xPTP, MSHRs) in the metric report.

    These live on the hardware objects rather than in :class:`SimStats`, so
    they are cleared by :meth:`System.reset_stats` at the warmup boundary and
    exported here at the end of the measurement window.
    """
    xptp = system.xptp_policy
    if xptp is not None:
        stats.counters["xptp.protected_evictions_avoided"] = (
            xptp.protected_evictions_avoided
        )
    for cache in system.caches:
        key = cache.config.name.lower()
        stats.counters[f"{key}.mshr_allocations"] = cache.mshrs.allocations
        stats.counters[f"{key}.mshr_merges"] = cache.mshrs.merges
        stats.counters[f"{key}.mshr_full_events"] = cache.mshrs.full_events
        stats.counters[f"{key}.mshr_retirements"] = cache.mshrs.retirements
    stats.counters["stlb.mshr_allocations"] = system.mmu.stlb_mshrs.allocations
    if system.config.dram.row_buffer:
        stats.counters["dram.row_hits"] = system.dram.row_hits
        stats.counters["dram.row_misses"] = system.dram.row_misses


def _tagged_size_policy(workloads: Sequence[SyntheticWorkload]):
    """Dispatch page-size decisions by the SMT thread tag in high bits."""
    mask = (1 << THREAD_TAG_SHIFT) - 1

    def policy(vaddr: int) -> PageSize:
        thread = vaddr >> THREAD_TAG_SHIFT
        if thread >= len(workloads):
            thread = 0
        return workloads[thread].size_policy(vaddr & mask)

    return policy


def simulate(
    config: SystemConfig,
    workload: SyntheticWorkload,
    warmup_instructions: int = DEFAULT_WARMUP,
    measure_instructions: int = DEFAULT_MEASURE,
    config_label: str = "",
    engine: Union[None, str] = None,
) -> SimulationResult:
    """Run one workload on one hardware thread.

    ``engine`` selects the execution engine (``spec`` or ``batched``; see
    :mod:`repro.kernel`); ``None`` defers to ``REPRO_ENGINE`` then the
    default.  Both engines produce bit-identical statistics.
    """
    system = System(config, workload.size_policy)
    core = Core(system, thread_id=0)
    stream = workload.record_stream()
    stats = system.stats

    if resolve_engine(engine) == "batched":
        kernel = BatchedEngine(system, core, stream)
        kernel.run_until(warmup_instructions)
        system.reset_stats()
        stats.cycles = kernel.run_until(measure_instructions)
        _export_adaptive(system, stats)
        _export_structures(system, stats)
        return SimulationResult(workload.name, config_label, stats)

    while stats.instructions < warmup_instructions:
        core.execute(next(stream))
    system.reset_stats()

    cycles = 0.0
    while stats.instructions < measure_instructions:
        cycles += core.execute(next(stream))
    stats.cycles = cycles
    _export_adaptive(system, stats)
    _export_structures(system, stats)
    return SimulationResult(workload.name, config_label, stats)


def simulate_smt(
    config: SystemConfig,
    workloads: Sequence[SyntheticWorkload],
    warmup_instructions: int = DEFAULT_WARMUP,
    measure_instructions: int = DEFAULT_MEASURE,
    config_label: str = "",
    overlap_residual: float = 0.25,
    engine: Union[None, str] = None,
) -> SimulationResult:
    """Co-locate two workloads on an SMT core with shared structures.

    ``overlap_residual`` is the fraction of the shorter thread's record
    cost that still contributes to elapsed cycles (shared issue bandwidth).
    ``engine`` is accepted for interface symmetry and validated, but SMT
    always runs the scalar spec path: the round-robin step interleaves two
    streams record-by-record, which the block-batched kernel does not model.
    """
    resolve_engine(engine)
    if len(workloads) != 2:
        raise ValueError("SMT simulation takes exactly two workloads")
    system = System(config, _tagged_size_policy(workloads))
    cores = [Core(system, thread_id=i) for i in range(2)]
    streams = [w.record_stream() for w in workloads]
    stats = system.stats

    def step() -> float:
        c0 = cores[0].execute(next(streams[0]))
        c1 = cores[1].execute(next(streams[1]))
        return max(c0, c1) + overlap_residual * min(c0, c1)

    while stats.instructions < warmup_instructions:
        step()
    system.reset_stats()

    cycles = 0.0
    while stats.instructions < measure_instructions:
        cycles += step()
    stats.cycles = cycles
    _export_adaptive(system, stats)
    _export_structures(system, stats)
    name = "+".join(w.name for w in workloads)
    return SimulationResult(name, config_label, stats)

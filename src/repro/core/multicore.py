"""Multi-programmed multicore simulation (extension).

The paper evaluates single-core and SMT co-location; the other standard
server-consolidation configuration is multi-programmed cores with private
L1/L2/TLB hierarchies sharing the LLC and DRAM.  This module provides that
mode: one :class:`~repro.core.system.CoreSlice` per core (front end, MMU,
walker and L2C) over a shared LLC, whose replacement policy is the
configured ``llc_policy``, and a shared DRAM channel whose bandwidth
pressure all cores feel.

Each core runs its own workload in its own address space (the same
high-bit tagging the SMT mode uses), so shared-structure contention is
capacity/bandwidth contention, never aliasing.
"""

from __future__ import annotations

from typing import List, Sequence

from ..common.params import SystemConfig
from ..common.stats import SimStats
from ..common.types import PageSize
from ..core.cpu import Core, THREAD_TAG_SHIFT
from ..core.simulator import SimulationResult
from ..core.system import CoreSlice, shared_levels
from ..ptw.page_table import PageTable
from ..workloads.base import SyntheticWorkload


class MulticoreSystem:
    """N cores with private L1/L2/TLBs, shared LLC and DRAM."""

    def __init__(
        self, config: SystemConfig, workloads: Sequence[SyntheticWorkload]
    ) -> None:
        if not workloads:
            raise ValueError("at least one workload/core required")
        self.config = config
        self.workloads = list(workloads)
        self.stats = SimStats()
        self.dram, self.llc = shared_levels(config, self.stats)
        self.page_table = PageTable(self._size_policy)

        #: Per-core private hierarchies; each is also its core's machine view.
        self.slices: List[CoreSlice] = [
            CoreSlice(config, self.stats, self.llc, self.dram, self.page_table, f"_{index}")
            for index in range(len(self.workloads))
        ]
        self.cores: List[Core] = [
            Core(core_slice, thread_id=index)
            for index, core_slice in enumerate(self.slices)
        ]
        self.adaptives = [core_slice.adaptive for core_slice in self.slices]

    def reset_stats(self) -> None:
        """Reset all statistics at the warmup/measurement boundary.

        Mirrors :meth:`repro.core.system.System.reset_stats`: SimStats plus
        the structure-owned counters of every core slice and shared level.
        """
        self.stats.reset()
        for core_slice in self.slices:
            core_slice.reset_stats()
        self.dram.reset_stats()
        self.llc.reset_stats()

    def _size_policy(self, vaddr: int) -> PageSize:
        index = vaddr >> THREAD_TAG_SHIFT
        if index >= len(self.workloads):
            index = 0
        return self.workloads[index].size_policy(vaddr & ((1 << THREAD_TAG_SHIFT) - 1))


def simulate_multicore(
    config: SystemConfig,
    workloads: Sequence[SyntheticWorkload],
    warmup_instructions: int = 50_000,
    measure_instructions: int = 200_000,
    config_label: str = "",
) -> SimulationResult:
    """Run one workload per core; throughput = total instructions / slowest core.

    Cores advance in lock-step rounds of one fetch group each; per-core
    cycles accumulate independently while all shared-state contention
    (LLC capacity, DRAM bandwidth) plays out through the shared objects.
    The lock-step round-robin always runs the scalar spec path (the batched
    kernel drives a single stream; see :mod:`repro.kernel`).
    """
    system = MulticoreSystem(config, workloads)
    streams = [wl.record_stream() for wl in workloads]
    stats = system.stats
    core_cycles = [0.0] * len(system.cores)

    def round_robin() -> None:
        for index, core in enumerate(system.cores):
            core_cycles[index] += core.execute(next(streams[index]))

    while stats.instructions < warmup_instructions:
        round_robin()
    system.reset_stats()
    for index in range(len(core_cycles)):
        core_cycles[index] = 0.0

    while stats.instructions < measure_instructions:
        round_robin()
    stats.cycles = max(core_cycles)
    name = "+".join(wl.name for wl in workloads)
    return SimulationResult(name, config_label, stats)

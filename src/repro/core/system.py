"""System wiring: build the simulated machine from a SystemConfig.

Table 1: L1I and L1D feed a unified L2C, which feeds the LLC, which feeds
DRAM.  The page-table walker issues its PTE reads to the L2C; the MMU
(ITLB/DTLB in front of a unified STLB, or of a split one when
``config.istlb`` is set, Section 6.6) sits in front of everything.

:class:`CoreSlice` wires one core's private part of that machine onto a
given LLC.  :class:`System` builds one; :class:`~repro.core.multicore.
MulticoreSystem` builds one per core over one shared LLC and DRAM.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..cache.cache import SetAssociativeCache
from ..cache.prefetch import make_prefetcher
from ..common import invariants
from ..common.params import CacheConfig, SystemConfig
from ..common.stats import SimStats
from ..common.types import PageSize
from ..mem.dram import DRAM
from ..ptw.page_table import PageTable
from ..ptw.walker import PageTableWalker
from ..replacement.registry import make_cache_policy
from ..replacement.xptp import XPTPPolicy
from ..tlb.hierarchy import MMU
from .adaptive import AdaptiveXPTPController

SizePolicy = Callable[[int], PageSize]


def _make_cache(
    config: SystemConfig,
    cache_config: CacheConfig,
    policy: str,
    next_level: object,
    stats: SimStats,
    stats_name: str,
) -> SetAssociativeCache:
    """One cache level; every policy gets xPTP's K and takes what it needs."""
    return SetAssociativeCache(
        cache_config,
        make_cache_policy(
            policy, cache_config.num_sets, cache_config.associativity,
            xptp_k=config.xptp.k,
        ),
        next_level,
        stats.level(stats_name),
        make_prefetcher(cache_config.prefetcher),
    )


def shared_levels(config: SystemConfig, stats: SimStats) -> Tuple[DRAM, SetAssociativeCache]:
    """DRAM and the LLC on top of it: the levels every core shares."""
    dram = DRAM(config.dram, stats.level("DRAM"))
    return dram, _make_cache(config, config.llc, config.llc_policy, dram, stats, "LLC")


class CoreSlice:
    """One core's private structures, wired onto a shared LLC and DRAM.

    Builds L2C, L1I, L1D, the walker and the MMU on top of ``llc``.
    ``suffix`` names this core's cache stats buckets (``L2C_0``); the TLB
    buckets stay shared (``STLB``) so the report aggregates every core.
    A slice carries everything :class:`repro.core.cpu.Core` reads from its
    machine, so a multicore core runs directly on its slice.
    """

    def __init__(
        self,
        config: SystemConfig,
        stats: SimStats,
        llc: SetAssociativeCache,
        dram: DRAM,
        page_table: PageTable,
        suffix: str = "",
    ) -> None:
        self.config = config
        self.stats = stats
        self.llc = llc
        self.dram = dram
        self.l2c = _make_cache(config, config.l2c, config.l2c_policy, llc, stats, f"L2C{suffix}")
        self.l1i = _make_cache(config, config.l1i, "lru", self.l2c, stats, f"L1I{suffix}")
        self.l1d = _make_cache(config, config.l1d, "lru", self.l2c, stats, f"L1D{suffix}")
        self.walker = PageTableWalker(page_table, config.psc, self.l2c, stats)
        self.mmu = MMU(config, self.walker, stats)
        xptp = next(
            (c.policy for c in (self.l2c, llc) if isinstance(c.policy, XPTPPolicy)), None
        )
        self.adaptive = AdaptiveXPTPController(config.adaptive, self.mmu, xptp)

    def reset_stats(self) -> None:
        """Reset the structure-owned counters of this core's private part."""
        self.adaptive.reset_stats()
        self.mmu.reset_stats()
        self.walker.reset_stats()
        for cache in (self.l2c, self.l1i, self.l1d):
            cache.reset_stats()


class System:
    """The full memory system shared by one core (or two SMT threads)."""

    def __init__(self, config: SystemConfig, size_policy: Optional[SizePolicy] = None) -> None:
        self.config = config
        self.stats = SimStats()
        self.dram, self.llc = shared_levels(config, self.stats)
        self.page_table = PageTable(size_policy)
        core = CoreSlice(config, self.stats, self.llc, self.dram, self.page_table)
        self.l2c = core.l2c
        self.l1i = core.l1i
        self.l1d = core.l1d
        #: Every cache of the machine, in build order.
        self.caches = (self.llc, self.l2c, self.l1i, self.l1d)
        #: Every TLB of the machine, in build order.
        self.tlbs = core.mmu.tlbs
        self.walker = core.walker
        self.mmu = core.mmu
        self.adaptive = core.adaptive
        self._core = core

    def reset_stats(self) -> None:
        """Reset every statistic at the warmup/measurement boundary.

        Covers :class:`SimStats` plus the counters that live on hardware
        structures themselves (MSHR files, xPTP's protected-eviction count,
        the adaptive controller's window counters) so warmup activity never
        leaks into measurement-window numbers.  Microarchitectural *state*
        (cache contents, recency stacks, outstanding MSHR entries) is kept —
        warming that state is the point of the warmup window.
        """
        self.stats.reset()
        self._core.reset_stats()
        self.dram.reset_stats()
        self.llc.reset_stats()
        if invariants.enabled():
            invariants.check_no_leaked_mshr_entries(self)

    @property
    def xptp_policy(self) -> Optional[XPTPPolicy]:
        return self.adaptive.xptp_policy

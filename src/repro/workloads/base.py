"""Workload abstraction.

A workload supplies a restartable stream of :class:`TraceRecord` fetch
groups plus the page-size policy for its address space (which fraction of
the code/data footprint lives on 2 MB pages — Section 6.5).

Virtual address layout (per thread; the simulator adds a per-thread tag in
high bits for SMT co-location):

* code:   ``CODE_BASE``  + byte offset
* data:   ``DATA_BASE``  + byte offset
* locals: ``LOCAL_BASE`` + byte offset (per-function scratch)
"""

from __future__ import annotations

import abc
from typing import Iterator

from ..common.types import PAGE_BYTES, PageSize, TraceRecord

CODE_BASE = 0x0040_0000_0000
DATA_BASE = 0x0080_0000_0000    # hot set
WARM_BASE = 0x00A0_0000_0000
STREAM_BASE = 0x00C0_0000_0000
LOCAL_BASE = 0x00E0_0000_0000

#: Used pages per 2 MB virtual region in the sparse layout (see sparse_vaddr).
PAGES_PER_REGION = 8
_REGION_BYTES = 2 * 1024 * 1024


def sparse_vaddr(base: int, page_index: int, offset: int = 0) -> int:
    """Virtual address of ``offset`` within the ``page_index``-th page of a
    sparsely laid-out region.

    Server heaps sprawl: allocations land in many distinct 2 MB regions
    rather than one dense range.  We model this by placing only
    ``PAGES_PER_REGION`` consecutive 4 KB pages in each 2 MB region.  This
    matters for two paper-relevant behaviours: (i) page-structure caches
    stop short-circuiting every walk (a PSCL2 entry covers one 2 MB region,
    so footprints spanning many regions miss the 32-entry PSCL2 and walks
    need 2+ memory references); (ii) a 2 MB page allocation (Section 6.5)
    still collapses the region's pages into one TLB entry.
    """
    region, slot = divmod(page_index, PAGES_PER_REGION)
    # The cluster of used pages sits at a per-region hashed position inside
    # the 2 MB region, so leaf-PTE lines spread across cache sets instead of
    # aliasing at table index 0 (real heap clusters start anywhere).
    start = (region * _HASH_MULT >> 8) % (512 - PAGES_PER_REGION)
    return base + region * _REGION_BYTES + (start + slot) * PAGE_BYTES + offset

#: Knuth multiplicative hash constant for the deterministic large-page lottery.
_HASH_MULT = 2654435761


def region_is_large(vaddr: int, percent: int, salt: int = 0) -> bool:
    """Deterministically decide if the 2 MB region of ``vaddr`` uses a 2 MB page.

    The lottery is per 2 MB-aligned region so a region is either entirely
    backed by one large page or entirely by 4 KB pages, matching how the
    multi-page-size methodology of prior work [37, 82] assigns footprint
    portions.
    """
    if percent <= 0:
        return False
    if percent >= 100:
        return True
    region = vaddr >> 21
    return ((region + salt) * _HASH_MULT >> 16) % 100 < percent


def require_positive(**params: int) -> None:
    """Reject a generator parameter that must be a positive count, by name."""
    for name, value in params.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


class SyntheticWorkload(abc.ABC):
    """Base class for generated workloads."""

    def __init__(self, name: str, seed: int, large_page_percent: int = 0) -> None:
        # Generators seed numpy with it, which takes no negative seed.
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        if not 0 <= large_page_percent <= 100:
            raise ValueError(f"large_page_percent must be in [0, 100], got {large_page_percent}")
        self.name = name
        self.seed = seed
        self.large_page_percent = large_page_percent

    @abc.abstractmethod
    def record_stream(self) -> Iterator[TraceRecord]:
        """Fresh, deterministic iterator over trace records."""

    def size_policy(self, vaddr: int) -> PageSize:
        """Page size backing ``vaddr`` (the simulator passes this to the page table)."""
        if region_is_large(vaddr, self.large_page_percent, salt=self.seed):
            return PageSize.SIZE_2M
        return PageSize.SIZE_4K

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} seed={self.seed}>"

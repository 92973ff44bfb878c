"""Qualcomm-Server-like synthetic workloads (DESIGN.md §3 substitution).

The CVP-1/IPC-1 server traces the paper uses are characterised by:

* instruction footprints of several MB — thousands of 4 KB code pages with
  Zipf-distributed function popularity and sequential intra-function fetch
  (BOLT/AsmDB-style behaviour [14, 61]);
* data footprints of tens of thousands of pages mixing a hot set, streaming
  scans and per-function locals;
* STLB MPKI ≥ 1 with instruction STLB MPKI up to ≈0.9 (Figure 2).

The generator below reproduces those distributional properties.  Code is
partitioned into functions (contiguous runs of fetch lines); execution
repeatedly samples a function from a Zipf-permuted popularity distribution,
optionally loops over its body, and issues loads/stores against hot,
streaming and local data regions.

The function table is derived state: it is built on the first
:meth:`ServerWorkload.record_stream` call and kept in ``_functions``, so
constructing a workload (e.g. to build a job matrix whose cells are all
cached) draws nothing and imports no NumPy, and a job whose table was
never built pickles without it.  Being underscore-prefixed, the table is
also outside the workload's fingerprint.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from ..common.types import CACHE_LINE_BYTES, PAGE_BYTES, TraceRecord
from ._rand import BatchedChoice, BatchedInts, BatchedUniform
from .base import (
    CODE_BASE,
    DATA_BASE,
    LOCAL_BASE,
    STREAM_BASE,
    WARM_BASE,
    SyntheticWorkload,
    require_positive,
    sparse_vaddr,
)

if TYPE_CHECKING:
    import numpy as np

LINES_PER_PAGE = PAGE_BYTES // CACHE_LINE_BYTES


class ServerWorkload(SyntheticWorkload):
    """Big-code server workload generator."""

    def __init__(
        self,
        name: str,
        seed: int,
        code_pages: int = 640,
        data_pages: int = 16000,
        hot_data_pages: int = 192,
        zipf_alpha: float = 1.05,
        hot_zipf_alpha: float = 1.4,
        instrs_per_line: int = 4,
        load_probability: float = 0.35,
        store_probability: float = 0.15,
        hot_fraction: float = 0.68,
        local_fraction: float = 0.15,
        warm_fraction: float = 0.08,
        warm_pages: int = 4800,
        page_reuse_probability: float = 0.8,
        lines_per_hot_page: int = 4,
        local_pages: int = 64,
        loop_probability: float = 0.5,
        min_function_lines: int = 4,
        max_function_lines: int = 48,
        large_page_percent: int = 0,
    ) -> None:
        super().__init__(name, seed, large_page_percent)
        # Reject here whatever would crash or hang the stream later: the
        # first stream may only be pulled in a pool worker.
        require_positive(
            code_pages=code_pages,
            data_pages=data_pages,
            hot_data_pages=hot_data_pages,
            warm_pages=warm_pages,
            local_pages=local_pages,
            lines_per_hot_page=lines_per_hot_page,
            min_function_lines=min_function_lines,
        )
        if min_function_lines > max_function_lines:
            raise ValueError(
                f"min_function_lines ({min_function_lines}) cannot exceed "
                f"max_function_lines ({max_function_lines})"
            )
        if hot_data_pages > data_pages:
            raise ValueError("hot_data_pages cannot exceed data_pages")
        if warm_pages >= data_pages - hot_data_pages:
            # The streaming region is what is left over; it must be non-empty.
            raise ValueError(
                "warm_pages must be less than data_pages - hot_data_pages "
                "(the streaming region would be empty)"
            )
        if hot_fraction + local_fraction + warm_fraction > 1.0:
            raise ValueError("access-mix fractions must sum to at most 1")
        self.code_pages = code_pages
        self.data_pages = data_pages
        self.hot_data_pages = hot_data_pages
        self.zipf_alpha = zipf_alpha
        self.hot_zipf_alpha = hot_zipf_alpha
        self.instrs_per_line = instrs_per_line
        self.load_probability = load_probability
        self.store_probability = store_probability
        self.hot_fraction = hot_fraction
        self.local_fraction = local_fraction
        self.warm_fraction = warm_fraction
        self.warm_pages = warm_pages
        self.page_reuse_probability = page_reuse_probability
        self.lines_per_hot_page = lines_per_hot_page
        self.local_pages = local_pages
        self.loop_probability = loop_probability
        self.min_function_lines = min_function_lines
        self.max_function_lines = max_function_lines
        #: ``(start_line, num_lines)`` per function; built on first use.
        self._functions: Optional[List[Tuple[int, int]]] = None

    # ------------------------------------------------------------------ #

    def _build_functions(self) -> List[Tuple[int, int]]:
        """Partition the code region into (start_line, num_lines) functions.

        Lengths are i.i.d. in ``[min_function_lines, max_function_lines]``
        and the last function is cut at the end of the region.  All lengths
        come from one vector draw of ``ceil(total_lines / min_function_lines)``
        values, enough to cover the region however short the functions are;
        PCG64 serves vector and scalar draws from the same stream and the
        generator is local, so the table equals drawing one length per
        function until the region is covered.
        """
        import numpy as np

        rng = np.random.default_rng(self.seed)
        total_lines = self.code_pages * LINES_PER_PAGE
        draws = -(-total_lines // self.min_function_lines)
        lengths = rng.integers(
            self.min_function_lines, self.max_function_lines + 1, size=draws
        )
        ends = np.cumsum(lengths)
        # The first function whose end reaches the region's end is the last.
        count = int(np.searchsorted(ends, total_lines)) + 1
        bounds = [0] + ends[:count].tolist()
        bounds[-1] = total_lines
        return [(bounds[i], bounds[i + 1] - bounds[i]) for i in range(count)]

    def _zipf_weights(self, rng: np.random.Generator, count: int) -> np.ndarray:
        import numpy as np

        ranks = rng.permutation(count) + 1
        weights = 1.0 / np.power(ranks, self.zipf_alpha)
        return weights / weights.sum()

    # ------------------------------------------------------------------ #

    def record_stream(self) -> Iterator[TraceRecord]:
        import numpy as np

        functions = self._functions
        if functions is None:
            functions = self._functions = self._build_functions()
        func_count = len(functions)
        rng = np.random.default_rng(self.seed + 1)
        weights = self._zipf_weights(rng, func_count)
        stream_bytes = (
            self.data_pages - self.hot_data_pages - self.warm_pages
        ) * PAGE_BYTES
        stream_cursor = 0

        # Hot-page popularity is itself skewed so a subset is STLB-resident.
        hot_ranks = rng.permutation(self.hot_data_pages) + 1
        hot_weights = 1.0 / np.power(hot_ranks, self.hot_zipf_alpha)
        hot_weights /= hot_weights.sum()

        coin = BatchedUniform(rng)
        pick_function = BatchedChoice(rng, func_count, weights)
        pick_hot_page = BatchedChoice(rng, self.hot_data_pages, hot_weights)
        # Hot structures occupy the first lines of their page: page-level
        # footprint for the TLB, line-level locality for the caches.
        pick_offset = BatchedInts(rng, self.lines_per_hot_page * CACHE_LINE_BYTES // 8)
        pick_local = BatchedInts(rng, 64)
        # Warm region: a large page working set with near-uniform reuse —
        # these are the data pages whose walks dominate STLB miss latency.
        pick_warm_page = BatchedInts(rng, self.warm_pages)

        # Base address of every hot and local page, so the loop adds an
        # offset instead of calling sparse_vaddr.  The warm region is too
        # large (thousands of pages, a few percent of loads) to pay for a
        # table and stays computed per access.
        hot_bases = [sparse_vaddr(DATA_BASE, page) for page in range(self.hot_data_pages)]
        local_bases = [sparse_vaddr(LOCAL_BASE, page) for page in range(self.local_pages)]
        hot_base = hot_bases[0]

        # Hot-loop bindings: one record per iteration, so every attribute
        # lookup in here is paid tens of thousands of times per cell.
        coin_next = coin.next
        pick_function_next = pick_function.next
        pick_hot_page_next = pick_hot_page.next
        pick_offset_next = pick_offset.next
        pick_local_next = pick_local.next
        pick_warm_page_next = pick_warm_page.next
        instrs_per_line = self.instrs_per_line
        load_probability = self.load_probability
        store_probability = self.store_probability
        hot_fraction = self.hot_fraction
        hot_local_fraction = self.hot_fraction + self.local_fraction
        hot_local_warm_fraction = hot_local_fraction + self.warm_fraction
        page_reuse_probability = self.page_reuse_probability
        loop_probability = self.loop_probability
        local_pages = self.local_pages
        # TraceRecord's generated __new__ is a Python function; building the
        # tuple directly gives the same record at half the cost.
        new_record = tuple.__new__

        while True:
            func_id = pick_function_next()
            start_line, num_lines = functions[func_id]
            repeats = 1
            if coin_next() < loop_probability:
                repeats = 2 if coin_next() < 0.7 else 3
            local_base = local_bases[func_id % local_pages]
            for _ in range(repeats):
                for line in range(start_line, start_line + num_lines):
                    # Code is densely laid out: binaries are contiguous, so
                    # instruction leaf-PTE lines are shared by 8 neighbouring
                    # pages and PSCL2 covers the whole text segment.
                    pc = CODE_BASE + line * CACHE_LINE_BYTES
                    loads: Tuple[int, ...] = ()
                    stores: Tuple[int, ...] = ()
                    if coin_next() < load_probability:
                        select = coin_next()
                        if select < hot_fraction:
                            # Page-burst behaviour: consecutive hot accesses
                            # tend to stay on the same data page.
                            if coin_next() >= page_reuse_probability:
                                hot_base = hot_bases[pick_hot_page_next()]
                            addr = hot_base + pick_offset_next() * 8
                        elif select < hot_local_fraction:
                            addr = local_base + pick_local_next() * 8
                        elif select < hot_local_warm_fraction:
                            addr = sparse_vaddr(
                                WARM_BASE, pick_warm_page_next(), pick_offset_next() * 8
                            )
                        else:
                            addr = STREAM_BASE + stream_cursor
                            stream_cursor = (stream_cursor + CACHE_LINE_BYTES) % stream_bytes
                        loads = (addr,)
                    if coin_next() < store_probability:
                        stores = (local_base + pick_local_next() * 8,)
                    yield new_record(TraceRecord, (pc, instrs_per_line, loads, stores))


def server_suite(
    count: int = 8, *, large_page_percent: int = 0, base_seed: int = 100
) -> List[ServerWorkload]:
    """A spread of server workloads with varying footprints and pressure.

    Stands in for the paper's 120 Qualcomm Server traces (DESIGN.md §3):
    seeds and footprints vary so the distribution of results has spread,
    and all workloads exercise heavy STLB pressure (the paper's selection
    criterion is STLB MPKI ≥ 1 under the LRU baseline).  Parameters are
    sized for the 1/4-scale system of ``scaled_config()``.
    """
    workloads: List[ServerWorkload] = []
    for i in range(count):
        workloads.append(
            ServerWorkload(
                name=f"srv_{i:02d}",
                seed=base_seed + i,
                code_pages=512 + 64 * (i % 5),
                data_pages=14000 + 2000 * (i % 3),
                hot_data_pages=160 + 32 * (i % 3),
                zipf_alpha=1.0 + 0.05 * (i % 3),
                warm_pages=4000 + 400 * (i % 4),
                warm_fraction=0.07 + 0.01 * (i % 3),
                large_page_percent=large_page_percent,
            )
        )
    return workloads

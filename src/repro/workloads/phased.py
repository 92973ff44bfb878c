"""Phase-alternating workload for the adaptive xPTP ablation (Section 4.3.1).

Alternates between a high-STLB-pressure server phase and a low-pressure
phase whose working set fits the TLB hierarchy, so a fixed-on xPTP hurts
the quiet phases and the adaptive switch should recover the loss.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from ..common.types import TraceRecord
from .base import SyntheticWorkload, require_positive
from .server import ServerWorkload
from .speclike import SpecLikeWorkload


class PhasedWorkload(SyntheticWorkload):
    """Interleaves phases of two sub-workloads at a fixed record period."""

    def __init__(
        self,
        name: str,
        seed: int,
        phase_records: int = 20000,
        large_page_percent: int = 0,
    ) -> None:
        super().__init__(name, seed, large_page_percent)
        # A zero-length phase would make the stream spin without yielding.
        require_positive(phase_records=phase_records)
        self.phase_records = phase_records
        self.pressure = ServerWorkload(
            f"{name}_hi", seed, large_page_percent=large_page_percent,
        )
        # The quiet phase's working set is sized to *just* fit the scaled
        # L2C: if stale data-PTE lines from the pressure phase stay pinned
        # (xPTP always-on), it overflows — exactly the situation the
        # adaptive switch exists to avoid.
        self.quiet = SpecLikeWorkload(
            f"{name}_lo", seed + 7, code_pages=28, loop_lines=192,
            data_pages=256, hot_data_pages=26, hot_fraction=0.92,
            large_page_percent=large_page_percent,
        )

    def record_stream(self) -> Iterator[TraceRecord]:
        high = self.pressure.record_stream()
        low = self.quiet.record_stream()
        phase_records = self.phase_records
        while True:
            yield from islice(high, phase_records)
            yield from islice(low, phase_records)

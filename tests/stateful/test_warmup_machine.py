"""Stateful protocol test: the warmup/measurement boundary on a full system.

The paper's methodology simulates a warmup window and then calls
``reset_stats`` before the measurement window, so the whole result set rests
on one contract: the boundary clears **every** statistic and preserves
**every** piece of microarchitectural state.  The machine drives a complete
scaled ``System`` (iTP STLB, xPTP L2C, adaptive controller, PSCs, row-buffer
DRAM) with a server-workload instruction stream, and at arbitrary points
drops a boundary:

* state snapshot before == state snapshot after — cache/TLB occupancies and
  Type bits, sampled recency orders, DRAM open rows, PSC contents;
* afterwards every counter in the stats schema reads zero — ``SimStats``
  scalars and dicts, every ``LevelStats`` slot, MSHR event counters on every
  cache and the STLB, xPTP's protected-eviction count, PSC and DRAM
  hit/miss diagnostics, and the adaptive controller's window counters.

``REPRO_CHECK`` stays set for the machine's lifetime (not just during
construction) because ``System.reset_stats`` consults it at call time for
the leaked-MSHR-entry quiescence check — so every boundary also asserts
MSHR quiescence, including entries parked in the retirement buffer.
"""

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.common.params import scaled_config
from repro.core.cpu import Core
from repro.core.system import System
from repro.workloads.server import ServerWorkload

from . import profiles  # noqa: F401  (registers and loads the settings profile)
from .oracles import enable_repro_check, restore_repro_check

#: Small but complete machine: every structure exists, nothing is big.
SCALE = 16


def _small_workload():
    return ServerWorkload(
        "boundary", seed=7,
        code_pages=8, data_pages=64, hot_data_pages=8,
        warm_pages=16, local_pages=4,
    )


class WarmupBoundaryMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self._repro_token = enable_repro_check()
        workload = _small_workload()
        config = scaled_config(SCALE).with_policies(stlb="itp", l2c="xptp")
        self.system = System(config, size_policy=workload.size_policy)
        self.core = Core(self.system)
        self._records = workload.record_stream()
        self.executed = 0

    def teardown(self):
        restore_repro_check(self._repro_token)

    # ------------------------------------------------------------------ #
    # State snapshot (everything reset_stats must NOT touch)
    # ------------------------------------------------------------------ #

    def _snapshot_state(self):
        system = self.system
        caches = {}
        for cache in system.caches:
            caches[cache.config.name] = (
                cache.occupancy(),
                cache.data_pte_blocks(),
                dict(cache._tag_maps[0]),
                tuple(cache.policy.stacks[0].order()),
                sorted(cache.mshrs._entries),
                sorted(cache.mshrs._retired),
            )
        tlbs = {}
        for index, tlb in enumerate(system.tlbs):
            tlbs[index] = (
                tlb.occupancy(),
                tlb.instruction_entries(),
                dict(tlb._key_maps[0]),
                tuple(tlb.policy.stacks[0].order()),
            )
        pscs = {
            level: sorted(
                key for s in cache._sets for key in s
            )
            for level, cache in system.walker.psc.caches.items()
        }
        return (
            caches,
            tlbs,
            pscs,
            tuple(system.dram._open_rows),
            system.mmu.stlb_miss_events,
            system.xptp_policy.enabled if system.xptp_policy else None,
        )

    # ------------------------------------------------------------------ #
    # Rules
    # ------------------------------------------------------------------ #

    @rule(n=st.integers(min_value=1, max_value=40))
    def run(self, n):
        """Execute up to ``n`` fetch-group records through the full system."""
        stats = self.system.stats
        for _ in range(n):
            record = next(self._records, None)
            if record is None:
                self._records = _small_workload().record_stream()
                record = next(self._records)
            stats.cycles += self.core.execute(record)
            self.executed += 1

    @precondition(lambda self: self.executed > 0)
    @rule()
    def boundary(self):
        """Drop a warmup/measurement boundary and check the whole contract."""
        system = self.system
        before = self._snapshot_state()
        system.reset_stats()  # REPRO_CHECK is on: MSHR quiescence is checked
        assert self._snapshot_state() == before, "reset_stats touched state"

        # --- SimStats ------------------------------------------------- #
        stats = system.stats
        assert stats.instructions == 0
        assert stats.cycles == 0.0
        assert stats.front_stall_cycles == 0
        assert stats.counters == {}
        assert stats.per_thread_instructions == {}
        for level in stats.levels.values():
            assert level.accesses == 0
            assert level.hits == 0
            assert level.misses == 0
            assert level.miss_latency_sum == 0
            assert all(v == 0 for v in level.cat_accesses.values())
            assert all(v == 0 for v in level.cat_misses.values())
            assert level.evictions == 0
            assert level.writebacks == 0
            assert level.prefetch_fills == 0
            assert level.prefetch_hits == 0
            assert level.prefetch_requests == 0

        # --- Structure-resident counters ------------------------------ #
        for cache in system.caches:
            mshrs = cache.mshrs
            for counter in ("allocations", "merges", "full_events", "retirements"):
                assert getattr(mshrs, counter) == 0, (
                    f"{cache.config.name}.mshr {counter} leaked"
                )
        mmu_mshrs = system.mmu.stlb_mshrs
        assert (mmu_mshrs.allocations, mmu_mshrs.merges,
                mmu_mshrs.full_events, mmu_mshrs.retirements) == (0, 0, 0, 0)
        assert system.xptp_policy.protected_evictions_avoided == 0
        for level, psc in system.walker.psc.caches.items():
            assert (psc.hits, psc.misses) == (0, 0), f"PSCL{level} leaked"
        assert (system.dram.row_hits, system.dram.row_misses) == (0, 0)
        adaptive = system.adaptive
        assert (adaptive.switches, adaptive.windows_enabled,
                adaptive.windows_total) == (0, 0, 0)


TestWarmupBoundary = WarmupBoundaryMachine.TestCase

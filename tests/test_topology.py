"""The machine's topology: the Table 1 hierarchy built single-core, with a
split STLB (Section 6.6) or once per core over a shared LLC and DRAM, and
the Table 2 policy suites that pick each structure's policy."""

from dataclasses import replace

import pytest

from repro.common.params import TLBConfig, scaled_config
from repro.core.multicore import MulticoreSystem, simulate_multicore
from repro.core.simulator import simulate
from repro.core.system import System
from repro.experiments.runner import POLICY_MATRIX, SUITES, config_for, suite_for
from repro.workloads.server import ServerWorkload

WARMUP = 2_000
MEASURE = 8_000


def workload(seed=3, name="w"):
    return ServerWorkload(name, seed=seed)


def split_config(entries=192):
    """Section 6.6: half the unified STLB's entries per half, same assoc."""
    half = TLBConfig("DSTLB", entries=entries, associativity=12, latency=8, mshr_entries=16)
    return replace(scaled_config(), stlb=half, istlb=replace(half, name="ISTLB"))


# --------------------------------------------------------------------- #
# Machine shapes
# --------------------------------------------------------------------- #


class TestPresetSmoke:
    def test_split_stlb_splits_the_mmu(self):
        config = split_config()
        system = System(config)
        assert system.mmu.split
        assert system.tlbs == (
            system.mmu.itlb, system.mmu.dtlb, system.mmu.stlb_data, system.mmu.stlb_instr
        )
        # Both halves report into the one STLB bucket.
        assert system.mmu.stlb_data.stats is system.mmu.stlb_instr.stats
        assert system.mmu.stlb_data.stats is system.stats.level("STLB")
        result = simulate(config, workload(), WARMUP, MEASURE)
        assert result.ipc > 0
        assert result.get("stlb.mpki") >= 0

    def test_multicore_2_end_to_end(self):
        result = simulate_multicore(
            scaled_config(),
            [workload(seed=3, name="a"), workload(seed=4, name="b")],
            WARMUP,
            MEASURE,
        )
        assert result.workload == "a+b"
        assert result.ipc > 0

    def test_multicore_private_l2s(self):
        system = MulticoreSystem(
            scaled_config(), [workload(seed=3, name="a"), workload(seed=4, name="b")]
        )
        assert system.slices[0].l2c is not system.slices[1].l2c
        assert system.slices[0].llc is system.slices[1].llc
        assert system.slices[0].walker.memory_level is system.slices[0].l2c


class TestValidation:
    def test_bad_core_count(self):
        with pytest.raises(ValueError, match="at least one workload/core"):
            MulticoreSystem(scaled_config(), [])


# --------------------------------------------------------------------- #
# Policy suites as the single source of truth
# --------------------------------------------------------------------- #


class TestPolicySuites:
    def test_policy_matrix_derives_from_suites(self):
        assert list(POLICY_MATRIX) == list(SUITES)
        for name, policies in POLICY_MATRIX.items():
            assert policies == suite_for(name).policies()

    def test_config_for_applies_the_suite(self):
        config = config_for("itp+xptp")
        assert config.stlb_policy == "itp"
        assert config.l2c_policy == "xptp"
        assert config_for("lru") == scaled_config()

    def test_unknown_technique_lists_suites(self):
        with pytest.raises(ValueError, match="unknown technique 'belady'; available: lru"):
            config_for("belady")

    def test_summary(self):
        assert suite_for("lru").summary() == "all-LRU baseline"
        assert "stlb=itp" in suite_for("itp+xptp").summary()

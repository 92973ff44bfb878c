"""Tests for the parallel experiment runner and its result cache."""

import os
import time

import pytest

from repro.common.params import scaled_config
from repro.experiments.runner import compare_single_thread, config_for
from repro.fabric import (
    CONTINUE,
    CellTimeout,
    ConfigurationError,
    MatrixError,
    ParallelRunner,
    ResultCache,
    SimJob,
    SimulationError,
    get_default_runner,
    job_key,
    run_jobs,
    set_default_runner,
    single,
    smt,
    workload_fingerprint,
)
from repro.fabric import execute_cell as _execute
from repro.faults import FaultPlan, FaultSpec, install_plan
from repro.faults import plan as fault_plan_mod
from repro.workloads.server import ServerWorkload

WARMUP = 2_000
MEASURE = 8_000


@pytest.fixture(autouse=True)
def _fresh_fault_state():
    """Isolate each test from installed fault plans and the env-plan cache."""
    install_plan(None)
    fault_plan_mod._env_cache = (None, None)
    yield
    install_plan(None)
    fault_plan_mod._env_cache = (None, None)


class BoomWorkload(ServerWorkload):
    """Raises mid-stream; module-level so pool workers can unpickle it."""

    def record_stream(self):
        raise RuntimeError("boom")


class AlwaysCrashWorkload(ServerWorkload):
    """Hard-kills its process on every attempt — only safe under a pool."""

    def record_stream(self):
        os._exit(13)


def small_workloads(count=2):
    return [ServerWorkload(f"w{i}", seed=i + 1) for i in range(count)]


def small_jobs(workloads=None, label="lru"):
    base = scaled_config()
    return [
        SimJob(base, (wl,), WARMUP, MEASURE, label=label)
        for wl in (workloads or small_workloads())
    ]


class TestSimJob:
    def test_validates_workload_count(self):
        base = scaled_config()
        wl = ServerWorkload("w", 1)
        with pytest.raises(ValueError):
            SimJob(base, (), WARMUP, MEASURE)
        with pytest.raises(ValueError):
            SimJob(base, (wl, wl, wl), WARMUP, MEASURE)

    def test_constructors_and_cell(self):
        base = scaled_config()
        w0, w1 = small_workloads()
        job = single(base, w0, WARMUP, MEASURE, label="itp")
        assert job.cell == "itp x w0"
        pair = smt(base, [w0, w1], WARMUP, MEASURE)
        assert pair.workload_name == "w0+w1"

    def test_job_key_stable_and_sensitive(self):
        base = scaled_config()
        wl = ServerWorkload("w", 1)
        job = SimJob(base, (wl,), WARMUP, MEASURE, label="lru")
        assert job_key(job) == job_key(job)
        other_seed = SimJob(
            base, (ServerWorkload("w", 2),), WARMUP, MEASURE, label="lru"
        )
        assert job_key(job) != job_key(other_seed)
        other_config = SimJob(
            base.with_policies(stlb="itp"), (wl,), WARMUP, MEASURE, label="lru"
        )
        assert job_key(job) != job_key(other_config)
        other_window = SimJob(base, (wl,), WARMUP, 2 * MEASURE, label="lru")
        assert job_key(job) != job_key(other_window)

    def test_fingerprint_sees_mutated_public_attrs(self):
        a = ServerWorkload("w", 1)
        b = ServerWorkload("w", 1)
        assert workload_fingerprint(a) == workload_fingerprint(b)
        b.large_page_percent = 100
        assert workload_fingerprint(a) != workload_fingerprint(b)


class TestParallelIdentical:
    def test_workers_4_matches_workers_1_bit_identical(self):
        workloads = small_workloads()
        serial = compare_single_thread(
            ("lru", "itp"), workloads, None, WARMUP, MEASURE,
            runner=ParallelRunner(workers=1),
        )
        parallel = compare_single_thread(
            ("lru", "itp"), workloads, None, WARMUP, MEASURE,
            runner=ParallelRunner(workers=4),
        )
        for technique in ("lru", "itp"):
            for wl in workloads:
                a = serial.results[technique][wl.name]
                b = parallel.results[technique][wl.name]
                assert a.metrics == b.metrics
                assert a.stats.cycles == b.stats.cycles
                assert a.stats.instructions == b.stats.instructions

    def test_result_order_matches_job_order(self):
        workloads = small_workloads(3)
        jobs = small_jobs(workloads)
        results = ParallelRunner(workers=4).run(jobs)
        assert [r.workload for r in results] == [j.workload_name for j in jobs]


class TestResultCache:
    def test_second_run_is_served_from_cache(self, tmp_path):
        runner = ParallelRunner(workers=1, cache_dir=tmp_path)
        jobs = small_jobs()
        first = runner.run(jobs)
        assert runner.simulations == 2
        assert runner.cache_misses == 2
        assert runner.cache_hits == 0

        second = runner.run(jobs)
        assert runner.simulations == 2  # nothing re-simulated
        assert runner.cache_hits == 2
        for a, b in zip(first, second):
            assert a.metrics == b.metrics

    def test_cache_shared_across_runners(self, tmp_path):
        jobs = small_jobs()
        ParallelRunner(workers=1, cache_dir=tmp_path).run(jobs)
        fresh = ParallelRunner(workers=1, cache_dir=tmp_path)
        fresh.run(jobs)
        assert fresh.simulations == 0
        assert fresh.cache_hits == 2

    def test_different_job_misses_cache(self, tmp_path):
        runner = ParallelRunner(workers=1, cache_dir=tmp_path)
        runner.run(small_jobs(label="lru"))
        runner.run(
            [
                SimJob(config_for("itp"), (wl,), WARMUP, MEASURE, label="itp")
                for wl in small_workloads()
            ]
        )
        assert runner.cache_hits == 0
        assert runner.simulations == 4

    def test_corrupt_entry_is_recomputed(self, tmp_path):
        runner = ParallelRunner(workers=1, cache_dir=tmp_path)
        jobs = small_jobs()
        runner.run(jobs)
        # This byte pattern makes pickle raise ValueError (bogus opcode
        # stream), not just UnpicklingError — load() must eat either.
        for pkl in tmp_path.glob("*.pkl"):
            pkl.write_bytes(b"garbage\n")
        runner.run(jobs)
        assert runner.simulations == 4
        assert runner.cache_hits == 0

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(workers=1, cache_dir=tmp_path)
        runner.run(small_jobs())
        assert cache.clear() == 2
        assert list(tmp_path.glob("*.pkl")) == []


class TestFailurePropagation:
    def failing_jobs(self):
        base = scaled_config()
        return [
            SimJob(base, (ServerWorkload("good", 1),), WARMUP, MEASURE, label="lru"),
            SimJob(base, (BoomWorkload("bad", 2),), WARMUP, MEASURE, label="lru"),
        ]

    def test_serial_failure_names_cell(self):
        with pytest.raises(SimulationError, match=r"lru x bad"):
            ParallelRunner(workers=1).run(self.failing_jobs())

    def test_pool_failure_names_cell(self):
        with pytest.raises(SimulationError, match=r"lru x bad"):
            ParallelRunner(workers=2).run(self.failing_jobs())


_TINY_RESULT = None


def tiny_result():
    """One small, memoised SimulationResult for cache round-trip tests."""
    global _TINY_RESULT
    if _TINY_RESULT is None:
        job = SimJob(scaled_config(), (ServerWorkload("tiny", 1),), 500, 1500, label="lru")
        _TINY_RESULT = _execute(job)[0]
    return _TINY_RESULT


class TestEnvValidation:
    def test_garbage_repro_workers_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "fast")
        previous = set_default_runner(None)
        try:
            with pytest.raises(ConfigurationError, match=r"REPRO_WORKERS.*'auto'"):
                get_default_runner()
        finally:
            set_default_runner(previous)

    def test_garbage_retry_and_timeout_envs(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "lots")
        with pytest.raises(ConfigurationError, match="REPRO_MAX_RETRIES"):
            ParallelRunner(workers=1)
        monkeypatch.delenv("REPRO_MAX_RETRIES")
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "soon")
        with pytest.raises(ConfigurationError, match="REPRO_CELL_TIMEOUT"):
            ParallelRunner(workers=1)

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="failure policy"):
            ParallelRunner(workers=1, policy="best-effort")

    def test_malformed_repro_faults_is_a_configuration_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.explode")
        with pytest.raises(ConfigurationError, match="REPRO_FAULTS.*worker.explode"):
            ParallelRunner(workers=1)

    def test_defaults_preserve_historical_behaviour(self):
        runner = ParallelRunner(workers=1)
        assert runner.policy == "fail-fast"
        assert runner.max_retries == 0
        assert runner.timeout is None


class TestCacheIntegrity:
    def test_checksummed_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("k", tiny_result())
        loaded = cache.load("k")
        assert loaded is not None
        assert loaded.metrics == tiny_result().metrics
        assert cache.quarantined == 0

    def test_torn_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("k", tiny_result())
        path = cache.path("k")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert cache.load("k") is None
        assert cache.quarantined == 1
        assert "sha256" in cache.last_quarantined
        assert not path.exists()
        assert list(cache.quarantine_dir.iterdir())

    def test_bitflip_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("k", tiny_result())
        path = cache.path("k")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert cache.load("k") is None
        assert cache.quarantined == 1

    def test_pre_checksum_format_is_quarantined(self, tmp_path):
        import pickle

        cache = ResultCache(tmp_path)
        cache.path("k").write_bytes(pickle.dumps(tiny_result()))
        assert cache.load("k") is None
        assert cache.quarantined == 1
        assert "magic" in cache.last_quarantined

    def test_quarantined_cell_is_resimulated_with_identical_metrics(self, tmp_path):
        runner = ParallelRunner(workers=1, cache_dir=tmp_path)
        jobs = small_jobs()
        first = runner.run(jobs)
        # Tear every entry: half the payload vanishes, digest goes stale.
        for pkl in tmp_path.glob("*.pkl"):
            data = pkl.read_bytes()
            pkl.write_bytes(data[: len(data) // 2])
        second = runner.run(jobs)
        assert runner.cache.quarantined == 2
        assert runner.cache_hits == 0
        assert runner.simulations == 4  # both cells re-simulated
        for a, b in zip(first, second):
            assert a.metrics == b.metrics
        events = [e for c in runner.last_report.cells for e in c.events]
        assert any("quarantined corrupt cache entry" in e for e in events)

    def test_failed_store_leaves_no_tmp_file(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError):
            cache.store("k", tiny_result())
        monkeypatch.undo()
        assert list(tmp_path.glob(".*.tmp")) == []
        assert cache.load("k") is None

    def test_stale_tmp_sweep_on_startup(self, tmp_path):
        stale = tmp_path / ".deadbeef.pkl.123.tmp"
        stale.write_bytes(b"half a result")
        two_hours_ago = time.time() - 7200
        os.utime(stale, (two_hours_ago, two_hours_ago))
        fresh = tmp_path / ".cafe.pkl.456.tmp"
        fresh.write_bytes(b"a live write")
        ResultCache(tmp_path)
        assert not stale.exists()
        assert fresh.exists()


class TestCompleteness:
    def test_unfilled_slot_fails_loudly(self, monkeypatch):
        """A runner bug that leaves a result slot empty must raise, not
        silently shrink the result list (regression for the old
        ``[r for r in results if r is not None]`` truncation)."""
        monkeypatch.setattr(
            ParallelRunner, "_finish", lambda self, *a, **k: None
        )
        with pytest.raises(SimulationError, match="without a result"):
            ParallelRunner(workers=1).run(small_jobs())


class TestRetriesAndFaults:
    def test_injected_serial_crash_is_retried_to_identical_metrics(self):
        plan = FaultPlan([FaultSpec("worker.crash", match="lru x w0")])
        runner = ParallelRunner(
            workers=1, max_retries=1, backoff_base=0.0, faults=plan
        )
        results = runner.run(small_jobs())
        clean = ParallelRunner(workers=1).run(small_jobs())
        for a, b in zip(results, clean):
            assert a.metrics == b.metrics
        report = runner.last_report
        assert report.cells[0].injected == ("worker.crash",)
        assert report.cells[0].attempts == 2
        assert any("InjectedWorkerCrash" in e for e in report.cells[0].events)
        assert report.cells[1].attempts == 1
        assert report.ok

    def test_exhausted_retries_fail_fast_names_cell(self):
        plan = FaultPlan([FaultSpec("worker.crash", match="lru x w0")])
        runner = ParallelRunner(workers=1, backoff_base=0.0, faults=plan)
        with pytest.raises(SimulationError, match=r"lru x w0"):
            runner.run(small_jobs())

    def test_continue_policy_collects_partial_results(self):
        base = scaled_config()
        jobs = [
            SimJob(base, (ServerWorkload("good", 1),), WARMUP, MEASURE, label="lru"),
            SimJob(base, (BoomWorkload("bad", 2),), WARMUP, MEASURE, label="lru"),
            SimJob(base, (ServerWorkload("also", 3),), WARMUP, MEASURE, label="lru"),
        ]
        runner = ParallelRunner(workers=1, policy=CONTINUE, backoff_base=0.0)
        with pytest.raises(MatrixError, match=r"1 of 3.*lru x bad") as excinfo:
            runner.run(jobs)
        error = excinfo.value
        assert error.results[0] is not None and error.results[2] is not None
        assert error.results[1] is None
        statuses = [c.status for c in error.report.cells]
        assert statuses == ["ok", "failed", "ok"]
        assert "RuntimeError: boom" in error.report.cells[1].error
        assert error.report.failures()[0].cell == "lru x bad"

    def test_injected_hang_hits_timeout_and_is_retried(self, monkeypatch):
        monkeypatch.setenv("REPRO_HANG_SECONDS", "30")
        plan = FaultPlan([FaultSpec("worker.hang", match="lru x w0")])
        runner = ParallelRunner(
            workers=1, max_retries=1, timeout=2.0, backoff_base=0.0, faults=plan
        )
        results = runner.run(small_jobs())
        clean = ParallelRunner(workers=1).run(small_jobs())
        for a, b in zip(results, clean):
            assert a.metrics == b.metrics
        cell = runner.last_report.cells[0]
        assert cell.status == "ok"
        assert cell.attempts == 2
        assert any("CellTimeout" in e for e in cell.events)
        assert cell.injected == ("worker.hang",)

    def test_hang_without_retries_reports_timeout_status(self, monkeypatch):
        monkeypatch.setenv("REPRO_HANG_SECONDS", "30")
        plan = FaultPlan([FaultSpec("worker.hang", match="lru x w0")])
        runner = ParallelRunner(
            workers=1, policy=CONTINUE, timeout=1.0, backoff_base=0.0, faults=plan
        )
        with pytest.raises(MatrixError) as excinfo:
            runner.run(small_jobs())
        cell = excinfo.value.report.cells[0]
        assert cell.status == "timeout"
        assert "wall-clock" in cell.error

    def test_timeout_exception_type(self):
        assert issubclass(CellTimeout, RuntimeError)


class TestPoolRecovery:
    def test_pool_restart_budget_exhaustion(self):
        base = scaled_config()
        jobs = [
            SimJob(base, (ServerWorkload("w0", 1),), WARMUP, MEASURE, label="lru"),
            SimJob(base, (AlwaysCrashWorkload("bad", 2),), WARMUP, MEASURE, label="lru"),
            SimJob(base, (ServerWorkload("w1", 3),), WARMUP, MEASURE, label="lru"),
        ]
        runner = ParallelRunner(
            workers=2, policy=CONTINUE, max_retries=5,
            max_pool_restarts=1, backoff_base=0.0,
        )
        with pytest.raises(MatrixError) as excinfo:
            runner.run(jobs)
        report = excinfo.value.report
        assert report.pool_restarts == 2
        failed_cells = {c.cell for c in report.failures()}
        assert "lru x bad" in failed_cells
        assert any("pool" in (c.error or "") for c in report.failures())


class TestChaosMatrix:
    """Acceptance: a >=12-cell matrix with an injected worker crash, a hang
    and a torn cache write completes under collect-and-continue and its
    metrics are bit-identical to a fault-free serial run."""

    def build_jobs(self):
        workloads = [ServerWorkload(f"w{i}", seed=i + 1) for i in range(6)]
        return [
            SimJob(config_for(t), (wl,), WARMUP, MEASURE, label=t)
            for t in ("lru", "itp")
            for wl in workloads
        ]

    def test_chaos_matrix_converges_bit_identically(self, tmp_path, monkeypatch):
        # Arm via REPRO_FAULTS exactly as the CI chaos job does: the hang
        # hits the first-submitted cell, the crash the last, so both faults
        # actually reach their attempt-0 window under 2 workers.
        monkeypatch.setenv("REPRO_HANG_SECONDS", "60")
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "worker.hang:1:0::lru x w0"
            ",worker.crash:1:0::itp x w5"
            ",cache.torn-write:1:0:1",
        )
        runner = ParallelRunner(
            workers=2, cache_dir=tmp_path / "cache", policy=CONTINUE,
            max_retries=2, timeout=3.0, max_pool_restarts=3, backoff_base=0.0,
        )
        jobs = self.build_jobs()
        results = runner.run(jobs)
        assert len(results) == 12 and all(r is not None for r in results)

        report = runner.last_report
        assert report.ok
        assert report.pool_restarts >= 1
        by_cell = {c.cell: c for c in report.cells}
        crash = by_cell["itp x w5"]
        assert "worker.crash" in crash.injected
        assert crash.attempts >= 2
        assert any("interrupted by worker crash" in e for e in crash.events)
        hang = by_cell["lru x w0"]
        assert "worker.hang" in hang.injected
        assert hang.attempts >= 2
        # The hang either trips its own deadline (CellTimeout retry) or is
        # interrupted when the crash cell breaks the pool — both recover.
        assert any(
            "CellTimeout" in e or "interrupted by worker crash" in e
            for e in hang.events
        )
        # No cell other than the armed ones was attributed a worker fault
        # (the torn-write site draws on every cell; max_fires caps actual
        # firing to one, verified below via the quarantine count).
        for cell in report.cells:
            if cell.cell not in ("itp x w5", "lru x w0"):
                assert "worker.crash" not in cell.injected
                assert "worker.hang" not in cell.injected

        # Fault-free serial reference: bit-identical metrics per cell.
        monkeypatch.delenv("REPRO_FAULTS")
        reference = ParallelRunner(workers=1).run(self.build_jobs())
        for got, want in zip(results, reference):
            assert got.metrics == want.metrics
            assert got.stats.cycles == want.stats.cycles
            assert got.stats.instructions == want.stats.instructions

        # The torn write corrupted exactly one stored entry; a clean re-run
        # quarantines it, re-simulates that cell, and serves the rest from
        # cache — with metrics identical to the reference again.
        repair = ParallelRunner(workers=1, cache_dir=tmp_path / "cache")
        repaired = repair.run(self.build_jobs())
        assert repair.cache.quarantined == 1
        assert repair.cache_hits == 11
        assert repair.simulations == 1
        for got, want in zip(repaired, reference):
            assert got.metrics == want.metrics


class TestReportSummary:
    def test_summary_mentions_counts_and_failures(self):
        base = scaled_config()
        jobs = [
            SimJob(base, (ServerWorkload("good", 1),), WARMUP, MEASURE, label="lru"),
            SimJob(base, (BoomWorkload("bad", 2),), WARMUP, MEASURE, label="lru"),
        ]
        runner = ParallelRunner(workers=1, policy=CONTINUE, backoff_base=0.0)
        with pytest.raises(MatrixError) as excinfo:
            runner.run(jobs)
        text = excinfo.value.report.summary()
        assert "2 cell(s)" in text
        assert "1 ok" in text and "1 failed" in text
        assert "lru x bad" in text


class TestDefaultRunner:
    def test_env_configures_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        previous = set_default_runner(None)
        try:
            runner = get_default_runner()
            assert runner.workers == 3
            assert runner.cache is not None
            assert get_default_runner() is runner  # memoised
        finally:
            set_default_runner(previous)

    def test_default_is_serial_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        previous = set_default_runner(None)
        try:
            runner = get_default_runner()
            assert runner.workers == 1
            assert runner.cache is None
        finally:
            set_default_runner(previous)

    def test_run_jobs_uses_explicit_runner(self):
        runner = ParallelRunner(workers=1)
        results = run_jobs(small_jobs(), runner)
        assert runner.simulations == 2
        assert len(results) == 2

"""Tests of the benchmark's own machinery.

    PYTHONPATH=src:perfbench python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import pytest

import run as bench_run
from calibrate import REFERENCE_S, SPAWN_REFERENCE_S, Paired, probe, spawn_probe, speed_factor
from cells import POOL, digest, jobs_for, run_job
from measure import Checker
from repro.core.cpu import Core
from repro.core.system import System
from repro.fabric import job_key
from repro.tlb.hierarchy import MMU
from tracer import CALLS, INCL, SELF, TracedWorkload, Tracer

#: Share of a traced loop's wall time the spans must cover: the rest is the
#: loop itself and the wrappers' own bookkeeping outside the timed region.
TRACE_COVERAGE_TOLERANCE = 0.15


def tiny(job, warmup=2_000, measure=6_000):
    return replace(job, warmup=warmup, measure=measure)


def traced_loop(records: int):
    """Drive a System by hand under the tracer; returns (tracer, wall ns)."""
    job = jobs_for("server_itp", 0)[1]
    tracer = Tracer()
    workload = TracedWorkload(job.workloads[0], tracer)
    with tracer.installed():
        system = System(job.config, workload.size_policy)
        core = Core(system, thread_id=0)
        stream = workload.record_stream()
        start = time.perf_counter_ns()
        for _ in range(records):
            core.execute(next(stream))
        wall = time.perf_counter_ns() - start
    return tracer, wall


class TestTracingArithmetic:
    def test_self_times_add_up_to_the_loop_wall_time(self):
        tracer, wall = traced_loop(4_000)
        # Exact: every nanosecond of a span is some layer's self time.
        assert tracer.self_total_ns() == tracer.root_ns
        assert tracer.root_ns <= wall
        assert tracer.self_total_ns() >= (1.0 - TRACE_COVERAGE_TOLERANCE) * wall

    def test_no_self_time_is_negative_and_children_nest(self):
        tracer, _wall = traced_loop(4_000)
        layers = tracer.layers
        for name, record in layers.items():
            assert record[SELF] >= 0, name
            assert record[SELF] <= record[INCL], name
        assert layers["core"][CALLS] == 4_000
        assert layers["workloads"][CALLS] == 4_000
        # Translations and L1I fetches run inside Core.execute, walks
        # inside translations: the parent's inclusive time covers them.
        assert layers["core"][INCL] >= layers["tlb"][INCL] + layers["cache.l1i"][INCL]
        assert layers["tlb"][INCL] >= layers["ptw"][INCL]
        for name in ("ptw", "stlb", "cache.l1d", "cache.l2c", "cache.llc", "mem.dram"):
            assert layers[name][CALLS] > 0, name

    def test_wrappers_are_removed_and_transparent(self):
        original = MMU.__dict__["translate"]
        job = tiny(jobs_for("server_itp", 0)[1])
        plain = digest(run_job(job).metrics)
        tracer = Tracer()
        with tracer.installed():
            assert MMU.__dict__["translate"] is not original
            traced = run_job(replace(job, workloads=(TracedWorkload(job.workloads[0], tracer),)))
        assert MMU.__dict__["translate"] is original
        assert digest(traced.metrics) == plain
        assert tracer.layers["core"][CALLS] > 0


class TestSeed:
    def test_seed_reaches_the_generators(self):
        for workload in ("server_itp", "spec_data", "figure_sweep"):
            a, b = jobs_for(workload, 0), jobs_for(workload, 1)
            seeds_a = [w.seed for job in a for w in job.workloads]
            seeds_b = [w.seed for job in b for w in job.workloads]
            assert len(seeds_a) == len(seeds_b)
            assert all(x != y for x, y in zip(seeds_a, seeds_b)), workload
            assert [job_key(j) for j in a] != [job_key(j) for j in b]

    def test_same_seed_same_inputs(self):
        first = jobs_for("figure_sweep", 3)
        again = jobs_for("figure_sweep", 3 + POOL)
        assert [job_key(j) for j in first] == [job_key(j) for j in again]
        stream_a = first[0].workloads[0].record_stream()
        stream_b = again[0].workloads[0].record_stream()
        assert [next(stream_a) for _ in range(200)] == [next(stream_b) for _ in range(200)]

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError):
            jobs_for("server_itp", -1)


class TestCorrectnessGate:
    def test_matching_reference_passes(self):
        job = tiny(jobs_for("spec_data", 0)[0])
        checker = Checker({job.cell: digest(run_job(job).metrics)})
        result, _seconds = checker.run(job)
        assert result is not None
        assert (checker.attempted, checker.failed, checker.error_rate) == (1, 0, 0.0)

    def test_corrupted_reference_digest_raises_error_rate(self):
        job = tiny(jobs_for("spec_data", 0)[0])
        good = digest(run_job(job).metrics)
        corrupted = ("0" if good[0] != "0" else "1") + good[1:]
        checker = Checker({job.cell: corrupted})
        checker.run(job)
        assert checker.failed == 1
        assert checker.error_rate > 0
        assert "differs from reference" in checker.problems[0]

    def test_exception_counts_as_failure(self):
        job = tiny(jobs_for("spec_data", 0)[0])

        class Broken:
            name = job.workloads[0].name
            size_policy = job.workloads[0].size_policy

            def record_stream(self):
                raise RuntimeError("generator failed")

        broken = replace(job, workloads=(Broken(),))
        checker = Checker({job.cell: "whatever"})
        result, _seconds = checker.run(broken)
        assert result is None
        assert checker.error_rate == 1.0

    def test_every_cell_has_a_reference_digest(self):
        import json

        reference = json.loads((bench_run.BENCH / "reference.json").read_text())
        for workload in ("server_itp", "spec_data", "figure_sweep"):
            for seed in range(POOL):
                expected = Checker.for_run(reference, workload, seed).expected
                assert {j.cell for j in jobs_for(workload, seed)} == set(expected)


class TestRecord:
    def test_tail_needs_ten_samples_beyond(self):
        assert bench_run.tail(list(range(19)), higher_is_better=False) is None
        pct, value = bench_run.tail([float(i) for i in range(20)], higher_is_better=False)
        assert pct == 50.0 and value == 9.0
        pct, value = bench_run.tail([float(i) for i in range(1000)], higher_is_better=False)
        assert pct == 99.0 and value == 989.0
        pct, value = bench_run.tail([float(i) for i in range(1000)], higher_is_better=True)
        assert pct == 99.0 and value == 10.0


class TestReferenceHostScaling:
    def test_a_slower_host_scales_times_down(self):
        # Every sample on a host where the probe takes twice its reference.
        cold = Paired([5.0, 6.0, 4.0], [2 * REFERENCE_S] * 3)
        assert cold.raw() == 5.0
        assert cold.scaled(REFERENCE_S) == pytest.approx(2.5)

    def test_each_sample_is_scaled_by_its_own_probe(self):
        # The host slows down fourfold between the two samples; the ratios
        # to the paired probes stay the same.
        warm = Paired()
        warm.add(0.3, 0.1)
        warm.add(1.2, 0.4)
        assert warm.scaled(SPAWN_REFERENCE_S) == pytest.approx(3 * SPAWN_REFERENCE_S)

    def test_probes_measure_fixed_work(self):
        times = [probe() for _ in range(3)]
        assert all(t > 0 for t in times)
        assert speed_factor(times) == REFERENCE_S / sorted(times)[1]
        assert spawn_probe(dict(os.environ)) > 0

"""Tests for the execution fabric: dedup, streaming, fault-plan scope, keys.

The runner's retry/crash/cache contract is pinned by
``test_parallel_runner.py``; this module covers within-matrix dedup by
``job_key``, incremental delivery, the per-runner fault-plan scope and
``job_key`` canonicity, plus the ``configure_default_runner``
worker-count regression.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import scaled_config
from repro.experiments.runner import POLICY_MATRIX, config_for
from repro.fabric import (
    ParallelRunner,
    SimJob,
    configure_default_runner,
    job_key,
    run_iter,
    set_default_runner,
)
from repro.faults import FaultPlan, FaultSpec, install_plan
from repro.faults import plan as fault_plan_mod
from repro.topology.presets import resolve_topology
from repro.workloads.server import ServerWorkload
from repro.workloads.speclike import SpecLikeWorkload

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


def small_workloads(count=2):
    return [ServerWorkload(f"w{i}", seed=i + 1) for i in range(count)]


def jobs_for(labels, workloads=None):
    base = scaled_config()
    return [
        SimJob(base, (wl,), WARMUP, MEASURE, label=label)
        for label in labels
        for wl in (workloads or small_workloads())
    ]


def assert_same_result(a, b):
    assert a.metrics == b.metrics
    assert a.stats.cycles == b.stats.cycles
    assert a.stats.instructions == b.stats.instructions


class TestWithinMatrixDedup:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_duplicate_cells_simulate_once(self, workers):
        unique_jobs = jobs_for(("lru", "itp"))
        # Equal content, fresh objects: duplicates are found by job_key.
        matrix = unique_jobs + jobs_for(("itp",))
        runner = ParallelRunner(workers=workers)
        results = runner.run(matrix)

        assert len(results) == len(matrix)
        assert runner.simulations == len({job_key(j) for j in matrix})
        by_key = {}
        for job, result in zip(matrix, results):
            assert by_key.setdefault(job_key(job), result) is result
        reference = ParallelRunner(workers=1).run(unique_jobs)
        for job, want in zip(unique_jobs, reference):
            assert_same_result(by_key[job_key(job)], want)
        statuses = [cell.status for cell in runner.last_report.cells]
        assert statuses == ["ok"] * len(matrix)


class TestFaultPlanScope:
    def test_runner_plan_is_not_installed_across_a_yield(self, tmp_path):
        ambient = FaultPlan([FaultSpec("worker.hang", probability=0.0)])
        install_plan(ambient)
        plan = FaultPlan([FaultSpec("worker.crash", match="lru x w0")])
        runner = ParallelRunner(
            workers=1, cache_dir=tmp_path, max_retries=1, backoff_base=0.0,
            faults=plan,
        )
        rows = 0
        for _index, _cell, _result in runner.run_iter(jobs_for(("lru",))):
            assert fault_plan_mod.active_plan() is ambient
            rows += 1
        assert rows == 2
        # The runner's own plan governed its cells.
        first = runner.last_report.cells[0]
        assert first.injected == ("worker.crash",)
        assert first.attempts == 2


#: Hash/canonical tests run at the high example tier.
DETERMINISM_SETTINGS = settings(max_examples=500, deadline=None)

TOPOLOGIES = (None, "table1", "split-stlb", "no-llc", "multicore-2", "shared-l2")


def describe_job(technique, warmup, measure, label, topology, seed):
    """Build a job from scratch: fresh config, fresh workload objects."""
    cores = 2 if topology in ("multicore-2", "shared-l2") else 1
    workloads = tuple(SpecLikeWorkload(f"s{i}", seed + i) for i in range(cores))
    return SimJob(config_for(technique), workloads, warmup, measure, label, topology)


job_descriptions = st.tuples(
    st.sampled_from(list(POLICY_MATRIX)),
    st.integers(min_value=0, max_value=50_000),
    st.integers(min_value=1, max_value=200_000),
    st.sampled_from(("", "lru", "itp", "itp+xptp", "a x b")),
    st.sampled_from(TOPOLOGIES),
    st.integers(min_value=0, max_value=2**31 - 1),
)


def key_batch():
    """A fixed batch of keys, recomputed in a child process below."""
    cells = [(technique, topology) for technique in POLICY_MATRIX for topology in TOPOLOGIES]
    return [
        job_key(describe_job(technique, 1_000 * i, 5_000, technique, topology, i))
        for i, (technique, topology) in enumerate(cells)
    ]


class TestJobKeyDeterminism:
    @DETERMINISM_SETTINGS
    @given(a=job_descriptions, b=job_descriptions)
    def test_key_is_canonical(self, a, b):
        job_a = describe_job(*a)
        key = job_key(job_a)
        assert len(key) == 64 and set(key) <= set("0123456789abcdef")
        # Same description, independently built: same key.
        assert job_key(describe_job(*a)) == key
        # A preset name and its resolved spec name the same machine.
        spec = resolve_topology(job_a.topology, job_a.config)
        assert job_key(replace(job_a, topology=spec)) == key
        # Different content, different key.
        job_b = describe_job(*b)

        def content(job):
            return (
                job.config, job.warmup, job.measure, job.label,
                job.resolved_topology().content_hash(), job.workloads[0].seed,
            )

        assert (job_key(job_b) == key) == (content(job_b) == content(job_a))

    def test_keys_survive_a_different_hash_seed(self):
        root = Path(__file__).resolve().parent.parent
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
        )
        child = subprocess.run(
            [sys.executable, "-c",
             "import json; from tests.test_fabric import key_batch; "
             "print(json.dumps(key_batch()))"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        assert json.loads(child.stdout) == key_batch()


class TestStreaming:
    def test_yields_every_index_exactly_once(self):
        jobs = jobs_for(("lru", "itp"))
        runner = ParallelRunner(workers=1)
        seen = {}
        for index, cell, result in runner.run_iter(jobs):
            assert index not in seen
            assert cell.cell == jobs[index].cell
            assert result.workload == jobs[index].workload_name
            seen[index] = result
        assert sorted(seen) == list(range(len(jobs)))

    def test_cached_cells_yield_immediately_in_job_order(self, tmp_path):
        runner = ParallelRunner(workers=1, cache_dir=tmp_path)
        warm = jobs_for(("lru",))
        runner.run(warm)
        # Superset matrix: the warm cells must stream out first, in job
        # order, before any fresh cell simulates.
        jobs = warm + jobs_for(("itp",))
        order = [index for index, _cell, _result in runner.run_iter(jobs)]
        assert order[: len(warm)] == list(range(len(warm)))
        statuses = [cell.status for cell in runner.last_report.cells]
        assert statuses[: len(warm)] == ["cached"] * len(warm)
        assert statuses[len(warm):] == ["ok"] * (len(jobs) - len(warm))

    def test_run_iter_module_helper_uses_default_runner(self):
        previous = set_default_runner(ParallelRunner(workers=1))
        try:
            jobs = jobs_for(("lru",))
            rows = list(run_iter(jobs))
            assert len(rows) == len(jobs)
        finally:
            set_default_runner(previous)


class TestConfigureDefaultRunner:
    def test_unset_workers_falls_back_to_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        previous = set_default_runner(None)
        try:
            runner = configure_default_runner(cache_dir=tmp_path)
            assert runner.workers == 3
        finally:
            set_default_runner(previous)

    def test_explicit_workers_still_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        previous = set_default_runner(None)
        try:
            assert configure_default_runner(workers=1).workers == 1
        finally:
            set_default_runner(previous)

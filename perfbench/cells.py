"""The benchmark's workloads: which simulation cells each one runs.

A workload is a list of :class:`repro.fabric.SimJob` cells built from the
``--seed``.  The seed picks one entry of a pool of ``POOL`` input sets, and
that entry's base seed goes to the repo's own workload generators
(``server_suite``, ``spec_suite``, ``smt_mixes``, ``PhasedWorkload``).
Footprints stay fixed across pool entries, so every seed does about the
same amount of work; only the generated traces differ.  The pool is finite
so that every cell the benchmark can run has a stored reference digest
(``reference.json``, written by ``make_reference.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Dict, List, Mapping

from repro.common.params import AdaptiveConfig, scaled_config
from repro.core.simulator import SimulationResult, simulate, simulate_smt
from repro.experiments.runner import POLICY_MATRIX, config_for
from repro.fabric import SimJob, single, smt
from repro.workloads import PhasedWorkload, server_suite, smt_mixes, spec_suite

#: Number of distinct input sets; ``--seed`` is reduced modulo this.
POOL = 16

WORKLOADS = ("server_itp", "spec_data", "figure_sweep")

#: Simulation windows (instructions).  Reduced from the figures'
#: 60k + 200k so a run repeats every cell several times; figure_sweep
#: shrinks them further so a run fits several cold passes.
WARMUP = 20_000
MEASURE = 60_000
SWEEP_WARMUP = 5_000
SWEEP_MEASURE = 15_000
SWEEP_LONG_MEASURE = 25_000

#: Techniques of the two single-thread workloads: the baseline, the
#: paper's proposal and the strongest prior L2C policy.
SIM_TECHNIQUES = ("lru", "itp+xptp", "tdrrip")
SIM_SUITE_SIZE = 5

#: figure_sweep: Figure 8a over every technique, Figure 8b on a few
#: techniques, and the adaptive-switch ablation.
SWEEP_SERVERS = 2
SWEEP_SMT_TECHNIQUES = ("lru", "itp+xptp")
SWEEP_T1_VALUES = (0, 1, 2, 4)
SWEEP_PHASE_RECORDS = 8_000


def pool_index(seed: int) -> int:
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed % POOL


def workload_seeds(index: int) -> Dict[str, int]:
    """Base seeds handed to the generators for pool entry ``index``.

    Entry 0 is exactly the repo's default suites (``server_suite()``,
    ``spec_suite()``, ``smt_mixes()``, the ablation's ``PhasedWorkload``).
    """
    step = 1000 * index
    return {"server": 100 + step, "spec": 500 + step, "smt": 900 + step, "phased": 7 + step}


def _sim_jobs(workload: str, seeds: Mapping[str, int]) -> List[SimJob]:
    if workload == "server_itp":
        suite = server_suite(SIM_SUITE_SIZE, base_seed=seeds["server"])
    else:
        suite = spec_suite(SIM_SUITE_SIZE, base_seed=seeds["spec"])
    # Workload-major order: each workload's techniques run back to back,
    # so a run that stops early still has complete lru/itp+xptp pairs.
    return [
        single(config_for(t), wl, WARMUP, MEASURE, label=t)
        for wl in suite
        for t in SIM_TECHNIQUES
    ]


def _sweep_jobs(seeds: Mapping[str, int]) -> List[SimJob]:
    jobs = [
        single(config_for(t), wl, SWEEP_WARMUP, SWEEP_MEASURE, label=t)
        for t in POLICY_MATRIX
        for wl in server_suite(SWEEP_SERVERS, base_seed=seeds["server"])
    ]
    jobs += [
        smt(config_for(t), mix.workloads, SWEEP_WARMUP, SWEEP_LONG_MEASURE, label=t)
        for t in SWEEP_SMT_TECHNIQUES
        for mix in smt_mixes(1, base_seed=seeds["smt"])
    ]
    # Same matrix as repro.experiments.ablation_adaptive.build_jobs, at a
    # reduced scale and with the phased workload's seed from the pool.
    phased = PhasedWorkload("phased", seed=seeds["phased"], phase_records=SWEEP_PHASE_RECORDS)
    base = scaled_config()
    proposal = base.with_policies(stlb="itp", l2c="xptp")
    jobs.append(single(base, phased, SWEEP_WARMUP, SWEEP_LONG_MEASURE, label="lru"))
    jobs.append(single(
        replace(proposal, adaptive=AdaptiveConfig(enabled=False)),
        phased, SWEEP_WARMUP, SWEEP_LONG_MEASURE, label="always-on",
    ))
    for t1 in SWEEP_T1_VALUES:
        jobs.append(single(
            replace(proposal, adaptive=AdaptiveConfig(enabled=True, t1_misses=t1)),
            phased, SWEEP_WARMUP, SWEEP_LONG_MEASURE, label=f"adaptive T1={t1}",
        ))
    return jobs


def jobs_for(workload: str, seed: int) -> List[SimJob]:
    """The cells of ``workload`` for ``seed``, in run order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    seeds = workload_seeds(pool_index(seed))
    if workload == "figure_sweep":
        return _sweep_jobs(seeds)
    return _sim_jobs(workload, seeds)


def run_job(job: SimJob) -> SimulationResult:
    """Simulate one cell in this process through ``simulate``/``simulate_smt``."""
    if len(job.workloads) == 2:
        return simulate_smt(job.config, job.workloads, job.warmup, job.measure,
                            config_label=job.label, engine=job.engine)
    return simulate(job.config, job.workloads[0], job.warmup, job.measure,
                    config_label=job.label, engine=job.engine)


def instructions(job: SimJob, result: SimulationResult) -> float:
    """Instructions simulated by a cell: warmup plus the measured window."""
    return job.warmup + result.metrics["instructions"]


def digest(metrics: Mapping[str, float]) -> str:
    """Content digest of a result's metrics; ``repr`` keeps every float bit."""
    text = "\n".join(f"{k}={v!r}" for k, v in sorted(metrics.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def reference_header() -> Dict[str, object]:
    """What the stored digests depend on besides the simulator itself."""
    return {
        "pool": POOL,
        "warmup": WARMUP,
        "measure": MEASURE,
        "sweep_warmup": SWEEP_WARMUP,
        "sweep_measure": SWEEP_MEASURE,
        "sweep_long_measure": SWEEP_LONG_MEASURE,
        "sim_suite_size": SIM_SUITE_SIZE,
        "sweep_servers": SWEEP_SERVERS,
        "sweep_phase_records": SWEEP_PHASE_RECORDS,
    }

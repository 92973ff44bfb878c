"""The measurement loops: untraced end-to-end runs and the traced run.

Every cell executed here — untraced, traced, batched engine, cold and warm
sweep passes — has its metric digest checked against the stored reference
by a :class:`Checker`; an exception or a mismatch fails the cell.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

from calibrate import (REFERENCE_S, SPAWN_REFERENCE_S, Paired, pool_probe, probe, spawn_probe,
                       speed_factor)
from cells import digest, instructions, jobs_for, pool_index, run_job
from repro.core.cpu import Core
from repro.core.system import System
from repro.experiments.runner import geomean
from repro.fabric import ResultCache, SimJob, job_key
from repro.kernel import BatchedEngine
from tracer import CALLS, EXTRA_A, EXTRA_B, SELF, TracedWorkload, Tracer

#: Fresh-process warm passes and set-up probes after each pass of a
#: simulation workload.
SIM_WARM_PASSES_PER_PASS = 2
SETUP_PROBES_PER_PASS = 2
#: Fresh-process warm passes after each figure_sweep cold pass.
SWEEP_WARM_PASSES = 1
#: Probes per process of the pool probe right before and right after each
#: figure_sweep cold pass, paired with it (the simulation workloads probe
#: between every two cells).
SWEEP_PROBES_PER_SIDE = 5
#: Records drained per workload for ``workloads.ns_per_record``.
DRAIN_RECORDS = 20_000
#: Traced cells run even when the time is up, enough to reach every layer
#: and both sides of each replacement-policy difference.
MIN_TRACED_CELLS = 4
#: Seconds a child process may take before the run is abandoned.
CHILD_TIMEOUT = 120

CACHE_LEVELS = ("l1i", "l1d", "l2c", "llc")


@dataclass
class Context:
    """Where a run lives: the checkout, its scratch space, child settings."""

    root: Path
    work: Path
    env: Dict[str, str]
    workers: int

    def run_child(self, *args: str):
        """Run ``child.py`` to completion; returns (spawn time, wall s, output)."""
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(self.root / "perfbench" / "child.py"), *args],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        wall = time.monotonic() - spawn
        if proc.returncode != 0:
            raise RuntimeError(f"child {' '.join(args)} exited {proc.returncode}:\n{err}")
        return spawn, wall, json.loads(out.strip().splitlines()[-1])

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


@dataclass
class Checker:
    """Counts attempted and failed cells against the reference digests."""

    expected: Dict[str, str]
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @classmethod
    def for_run(cls, reference: dict, workload: str, seed: int) -> "Checker":
        return cls(reference["digests"][workload][str(pool_index(seed))])

    def check(self, cell: str, got: Optional[str], error: Optional[str] = None) -> bool:
        self.attempted += 1
        want = self.expected.get(cell)
        if error is not None:
            problem = f"{cell}: {error}"
        elif want is None:
            problem = f"{cell}: no reference digest"
        elif got != want:
            problem = f"{cell}: digest {got} differs from reference {want}"
        else:
            return True
        self.failed += 1
        self.problems.append(problem)
        return False

    def run(self, job: SimJob):
        """Simulate ``job`` in-process; returns (result or None, seconds)."""
        start = time.perf_counter()
        try:
            result = run_job(job)
        except Exception as exc:  # a failing cell is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.check(job.cell, None, error=f"raised {exc!r}")
            return None, time.perf_counter() - start
        seconds = time.perf_counter() - start
        self.check(job.cell, digest(result.metrics))
        return result, seconds

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


@dataclass
class Outcome:
    """What a run measured: metric values, their samples, notes to print."""

    metrics: Dict[str, float]
    #: The same metrics before scaling to the reference host, and the scale.
    raw: Dict[str, float] = field(default_factory=dict)
    speed_factor: Optional[float] = None
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Host seconds of every execution of each cell, in run order, and the
    #: host probe paired with each (simulation workloads).
    cell_seconds: Dict[str, List[float]] = field(default_factory=dict)
    cell_probes: Dict[str, List[float]] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def _rss_mb(kb: float) -> float:
    return kb / 1024.0


# --------------------------------------------------------------------- #
# Fresh-process phases
# --------------------------------------------------------------------- #


def setup_probe(ctx: Context, workload: str, seed: int) -> float:
    spawn, _wall, out = ctx.run_child("setup", "--workload", workload, "--seed", str(seed))
    return out["ready"] - spawn


def sweep_pass(ctx: Context, checker: Checker, workload: str, seed: int, store: Path,
               workers: int, cold: bool, trace: bool = False, limit: Optional[int] = None):
    """One cold or warm pass in a fresh process; returns (wall s, output)."""
    args = ["sweep", "--workload", workload, "--seed", str(seed),
            "--store", str(store), "--workers", str(workers)]
    if trace:
        args.append("--trace")
    if limit is not None:
        args += ["--limit", str(limit)]
    spawn, wall, out = ctx.run_child(*args)
    out["spawn"] = spawn
    for cell in out["cells"]:
        if cell["status"] not in ("ok", "cached"):
            checker.check(cell["cell"], None, error=f"status {cell['status']}")
        elif cold and cell["status"] == "cached":
            checker.check(cell["cell"], None, error="served from an empty store")
        elif not cold and cell["status"] != "cached":
            checker.check(cell["cell"], None, error="re-simulated on the warm pass")
        else:
            checker.check(cell["cell"], cell["digest"])
    return wall, out


def _sweep_rss_mb(out: dict) -> float:
    return _rss_mb(out["rss_self_kb"] + out["workers"] * out["rss_child_kb"])


# --------------------------------------------------------------------- #
# Untraced end-to-end runs
# --------------------------------------------------------------------- #


def untraced(ctx: Context, checker: Checker, workload: str, seed: int, seconds: float) -> Outcome:
    if workload == "figure_sweep":
        return _sweep_untraced(ctx, checker, workload, seed, seconds)
    return _sim_untraced(ctx, checker, workload, seed, seconds)


def _sim_untraced(ctx, checker, workload, seed, seconds) -> Outcome:
    """Whole passes over the cells until the time is up, each cell paired
    with the mean of the host probes taken right before and right after it.  After each pass come warm
    passes (a fresh process re-serving the first pass's results from a
    store, like ``python -m repro.experiments --cache-dir``) and set-up
    probes, so every kind of sample is spread over the whole run."""
    jobs = jobs_for(workload, seed)
    store_dir = ctx.fresh_dir("store")
    cells: Dict[str, Paired] = defaultdict(Paired)
    cell_instructions: Dict[str, float] = {}
    passes: List[float] = []
    warm = Paired()
    setup = Paired()
    first: List = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        pass_start = time.perf_counter()
        before = probe()
        for job in jobs:
            result, elapsed = checker.run(job)
            after = probe()
            if result is not None:
                cells[job.cell].add(elapsed, (before + after) / 2)
                cell_instructions[job.cell] = instructions(job, result)
            before = after
            if not passes:
                first.append(result)
        passes.append(time.perf_counter() - pass_start)
        if len(passes) == 1:
            store = ResultCache(store_dir)
            for job, result in zip(jobs, first):
                if result is not None:
                    store.store(job_key(job), result)
        for _ in range(SIM_WARM_PASSES_PER_PASS):
            wall, _out = sweep_pass(ctx, checker, workload, seed, store_dir, 1, cold=False)
            warm.add(wall, spawn_probe(ctx.env))
        for _ in range(SETUP_PROBES_PER_PASS):
            setup.add(setup_probe(ctx, workload, seed), spawn_probe(ctx.env))
    shutil.rmtree(store_dir, ignore_errors=True)

    # A pass at each cell's median time.
    instructions_total = sum(cell_instructions.values())
    raw_pass_s = sum(cell.raw() for cell in cells.values())
    pass_s = sum(cell.scaled(REFERENCE_S) for cell in cells.values())
    rss = _rss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    outcome = Outcome(
        metrics={
            "sim_kips": instructions_total / pass_s / 1e3,
            "sweep_cold_s": pass_s,
            "sweep_warm_s": warm.scaled(SPAWN_REFERENCE_S),
            "setup_s": setup.scaled(SPAWN_REFERENCE_S),
            "peak_rss_mb": rss,
        },
        raw={
            "sim_kips": instructions_total / raw_pass_s / 1e3,
            "sweep_cold_s": raw_pass_s,
            "sweep_warm_s": warm.raw(),
            "setup_s": setup.raw(),
        },
        speed_factor=speed_factor([p for cell in cells.values() for p in cell.probes]),
        samples={"pass_s": passes, "sweep_warm_s": warm.seconds, "setup_s": setup.seconds,
                 "warm_spawn_s": warm.probes, "setup_spawn_s": setup.probes},
        cell_seconds={name: cell.seconds for name, cell in cells.items()},
        cell_probes={name: cell.probes for name, cell in cells.items()},
    )
    if workload == "server_itp":
        outcome.lines.append(_accuracy_line(jobs, first))
    return outcome


def _accuracy_line(jobs: List[SimJob], results) -> str:
    ipc: Dict[str, Dict[str, float]] = defaultdict(dict)
    for job, result in zip(jobs, results):
        if result is not None:
            ipc[job.label][job.workload_name] = result.ipc
    ratios = [ipc["itp+xptp"][w] / base for w, base in ipc["lru"].items()
              if base > 0 and w in ipc["itp+xptp"]]
    gain = 100.0 * (geomean(ratios) - 1.0)
    return (
        f"model accuracy (informational, not gated): itp+xptp geomean IPC gain over lru "
        f"{gain:+.2f} % on {len(ratios)} server_itp workloads vs paper Figure 8a +18.9 %; "
        f"reduced-scale synthetic-trace model, not validated against hardware"
    )


def _sweep_untraced(ctx, checker, workload, seed, seconds) -> Outcome:
    """Cold passes until the time is up, each between two sets of host
    probes and followed by warm passes; every pass and set-up is paired
    with a probe."""
    cold = Paired()
    warm = Paired()
    setup = Paired()
    probes: List[float] = []
    matrix_instructions = 0.0
    rss = 0.0
    cell_seconds: Dict[str, List[float]] = defaultdict(list)
    start = time.monotonic()
    while not cold.seconds or time.monotonic() - start < seconds:
        store = ctx.fresh_dir("store")
        around = [pool_probe(ctx.env, ctx.workers, SWEEP_PROBES_PER_SIDE)]
        wall, out = sweep_pass(ctx, checker, workload, seed, store, ctx.workers, cold=True)
        around.append(pool_probe(ctx.env, ctx.workers, SWEEP_PROBES_PER_SIDE))
        cold.add(wall, statistics.fmean(around))
        # Cold and warm passes do the same work up to the first dispatch.
        setup.add(out["dispatch"] - out["spawn"], spawn_probe(ctx.env))
        probes += around
        matrix_instructions = sum(c.get("instructions", 0.0) for c in out["cells"])
        rss = max(rss, _sweep_rss_mb(out))
        for cell in out["cells"]:
            cell_seconds[cell["cell"]].append(cell["elapsed"])
        for _ in range(SWEEP_WARM_PASSES):
            wall, out = sweep_pass(ctx, checker, workload, seed, store, ctx.workers, cold=False)
            spawn = spawn_probe(ctx.env)
            warm.add(wall, spawn)
            setup.add(out["dispatch"] - out["spawn"], spawn)
            rss = max(rss, _sweep_rss_mb(out))
        shutil.rmtree(store, ignore_errors=True)
    cold_s = cold.scaled(REFERENCE_S)
    return Outcome(
        metrics={
            "sim_kips": matrix_instructions / cold_s / 1e3,
            "sweep_cold_s": cold_s,
            "sweep_warm_s": warm.scaled(SPAWN_REFERENCE_S),
            "setup_s": setup.scaled(SPAWN_REFERENCE_S),
            "peak_rss_mb": rss,
        },
        raw={
            "sim_kips": matrix_instructions / cold.raw() / 1e3,
            "sweep_cold_s": cold.raw(),
            "sweep_warm_s": warm.raw(),
            "setup_s": setup.raw(),
        },
        speed_factor=speed_factor(probes),
        samples={"sweep_cold_s": cold.seconds, "sweep_warm_s": warm.seconds,
                 "setup_s": setup.seconds, "probe_s": probes, "cold_probe_s": cold.probes,
                 "warm_spawn_s": warm.probes, "setup_spawn_s": setup.probes},
        cell_seconds=dict(cell_seconds),
    )


# --------------------------------------------------------------------- #
# Traced run
# --------------------------------------------------------------------- #


class LayerTotals:
    """Tracer layer records summed over cells, overall and per policy."""

    def __init__(self) -> None:
        self.total: Dict[str, List[int]] = defaultdict(lambda: [0] * 5)
        self.by_policy: Dict[tuple, List[int]] = defaultdict(lambda: [0] * 5)
        self.psc_hits = 0.0
        self.psc_lookups = 0.0
        self.demand: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])

    def add(self, job: SimJob, tracer: Tracer, metrics: Dict[str, float]) -> None:
        for name, record in tracer.layers.items():
            total = self.total[name]
            for i, value in enumerate(record):
                total[i] += value
        for layer, policy in (("cache.l2c", job.config.l2c_policy),
                              ("stlb", job.config.stlb_policy)):
            record = tracer.layers.get(layer)
            if record is not None:
                bucket = self.by_policy[(layer, policy)]
                bucket[CALLS] += record[CALLS]
                bucket[SELF] += record[SELF]
        # Every walk probes the PSCs once and counts its deepest hit (or a
        # miss); a PSCL2 hit leaves only the leaf PTE to read.
        self.psc_hits += metrics.get("ptw.pscl2_hits", 0.0)
        self.psc_lookups += metrics.get("ptw.psc_misses", 0.0) + sum(
            v for k, v in metrics.items() if k.startswith("ptw.pscl") and k.endswith("_hits"))
        for level in CACHE_LEVELS:
            accesses = metrics.get(f"{level}.accesses", 0.0)
            self.demand[level][0] += accesses - metrics.get(f"{level}.misses", 0.0)
            self.demand[level][1] += accesses

    def per_call_ns(self, layer: str, policy: str) -> Optional[float]:
        record = self.by_policy.get((layer, policy))
        if not record or not record[CALLS]:
            return None
        return record[SELF] / record[CALLS]

    def metrics(self) -> Dict[str, float]:
        t = self.total
        records = t["core"][CALLS] or 1
        tlb, stlb, ptw = t["tlb"], t["stlb"], t["ptw"]
        out = {
            "core.self_ns_per_record": t["core"][SELF] / records,
            "tlb.calls": tlb[CALLS] / records,
            "tlb.self_ns": (tlb[SELF] + stlb[SELF]) / max(1, tlb[CALLS]),
            "tlb.l1_hit_rate": 1.0 - tlb[EXTRA_A] / max(1, tlb[CALLS]),
            "tlb.stlb_hit_rate": 1.0 - tlb[EXTRA_B] / max(1, tlb[EXTRA_A]),
            "ptw.walks": ptw[CALLS] / records,
            "ptw.self_ns": ptw[SELF] / max(1, ptw[CALLS]),
            "ptw.refs_per_walk": ptw[EXTRA_A] / max(1, ptw[CALLS]),
            "ptw.psc_hit_rate": self.psc_hits / max(1.0, self.psc_lookups),
            "mem.dram.calls": t["mem.dram"][CALLS] / records,
            "mem.dram.self_ns": t["mem.dram"][SELF] / max(1, t["mem.dram"][CALLS]),
        }
        for level in CACHE_LEVELS:
            record = t[f"cache.{level}"]
            hits, accesses = self.demand[level]
            out[f"cache.{level}.calls"] = record[CALLS] / records
            out[f"cache.{level}.self_ns"] = record[SELF] / max(1, record[CALLS])
            out[f"cache.{level}.hit_rate"] = hits / accesses if accesses else 0.0
        for name, layer, policy in (("replacement.l2c.xptp_minus_lru_ns", "cache.l2c", "xptp"),
                                    ("replacement.stlb.itp_minus_lru_ns", "stlb", "itp")):
            with_policy = self.per_call_ns(layer, policy)
            lru = self.per_call_ns(layer, "lru")
            out[name] = with_policy - lru if with_policy is not None and lru is not None else 0.0
        return out


def _traced_order(jobs: List[SimJob]) -> List[SimJob]:
    """Cells interleaved by kind (1T, SMT, phased) with the lru and
    itp+xptp cells first, so a short run still covers every layer and both
    sides of each replacement difference."""
    groups: Dict[tuple, List[SimJob]] = defaultdict(list)
    for job in jobs:
        groups[(len(job.workloads), job.workloads[0].name == "phased")].append(job)
    for group in groups.values():
        group.sort(key=lambda j: j.label not in ("lru", "itp+xptp"))
    ordered = []
    queues = list(groups.values())
    while any(queues):
        for queue in queues:
            if queue:
                ordered.append(queue.pop(0))
    return ordered


def _coverage(job: SimJob) -> float:
    """Fast-path coverage of the batched engine over the cell's records."""
    workload = job.workloads[0]
    system = System(job.config, workload.size_policy)
    engine = BatchedEngine(system, Core(system, thread_id=0), workload.record_stream())
    engine.run_until(job.warmup + job.measure)
    return engine.fast_path_coverage


def _drain_ns_per_record(jobs: List[SimJob]) -> float:
    workloads = {w.name: w for job in jobs for w in job.workloads}
    elapsed = 0
    for workload in workloads.values():
        stream = workload.record_stream()
        start = time.perf_counter_ns()
        for _ in range(DRAIN_RECORDS):
            next(stream)
        elapsed += time.perf_counter_ns() - start
    return elapsed / (DRAIN_RECORDS * len(workloads))


def traced(ctx: Context, checker: Checker, workload: str, seed: int, seconds: float) -> Outcome:
    jobs = jobs_for(workload, seed)
    start = time.monotonic()
    sweep = workload == "figure_sweep"
    fabric = _sweep_fabric_metrics(ctx, checker, seed) if sweep else None
    order = _traced_order(jobs) if sweep else jobs
    # One untimed cell first: the first simulation in a process pays
    # one-off costs that would skew the traced/untraced ratio.
    checker.run(order[0])
    totals = LayerTotals()
    spec_s = traced_s = 0.0
    kernel_spec_s = kernel_batched_s = 0.0
    coverage: List[float] = []
    unattributed: List[float] = []
    untraced_results = []
    cell_seconds: Dict[str, List[float]] = defaultdict(list)
    while len(untraced_results) < len(order) and (
            len(untraced_results) < MIN_TRACED_CELLS or time.monotonic() - start < seconds):
        job = order[len(untraced_results)]
        result, spec = checker.run(job)
        cell_seconds[job.cell].append(spec)
        untraced_results.append(result)
        tracer = Tracer()
        traced_job = replace(job, workloads=tuple(TracedWorkload(w, tracer) for w in job.workloads))
        with tracer.installed():
            traced_result, seconds_traced = checker.run(traced_job)
        if result is None or traced_result is None:
            continue
        if digest(traced_result.metrics) != digest(result.metrics):
            checker.problems.append(f"{job.cell}: traced digest differs from untraced")
        spec_s += spec
        traced_s += seconds_traced
        unattributed.append(1.0 - tracer.self_total_ns() / 1e9 / seconds_traced)
        totals.add(job, tracer, traced_result.metrics)
        if len(job.workloads) == 1:
            batched, batched_s = checker.run(replace(job, engine="batched"))
            if batched is not None:
                kernel_spec_s += spec
                kernel_batched_s += batched_s
                coverage.append(_coverage(job))
    if fabric is None:
        fabric = _sim_fabric_metrics(ctx, checker, workload, seed, jobs, untraced_results)

    metrics = totals.metrics()
    metrics.update(fabric)
    metrics["workloads.ns_per_record"] = _drain_ns_per_record(jobs)
    metrics["kernel.fast_path_coverage"] = statistics.fmean(coverage) if coverage else 0.0
    metrics["kernel.batched_over_spec"] = (
        kernel_spec_s / kernel_batched_s if kernel_batched_s else 0.0)
    metrics["trace.overhead_ratio"] = spec_s / traced_s if traced_s else 0.0
    return Outcome(
        metrics=metrics,
        samples={"trace.unattributed_share": unattributed},
        cell_seconds=dict(cell_seconds),
        lines=[f"traced {len(untraced_results)} cells; share of traced cell time outside "
               f"every span: median {median(unattributed):.3f}"],
    )


def _sweep_fabric_metrics(ctx, checker, seed) -> Dict[str, float]:
    """Fabric and store metrics from one instrumented cold and warm pass."""
    store_dir = ctx.fresh_dir("store")
    _wall, cold = sweep_pass(ctx, checker, "figure_sweep", seed, store_dir, ctx.workers,
                             cold=True, trace=True)
    _wall, warm = sweep_pass(ctx, checker, "figure_sweep", seed, store_dir, ctx.workers,
                             cold=False, trace=True)
    shutil.rmtree(store_dir, ignore_errors=True)
    cells = cold["cells"]
    span = max(c["at"] for c in cells) - cold["dispatch"]
    busy = sum(c["elapsed"] for c in cells)
    first = min(cells, key=lambda c: c["at"])
    out = {
        "fabric.pool_start_s": first["at"] - cold["dispatch"] - first["elapsed"],
        "fabric.overhead_s": span - busy / cold["workers"],
        "fabric.worker_busy_ratio": busy / (span * cold["workers"]),
        "fabric.retries": float(sum(max(0, c["attempts"] - 1) for c in cells)),
    }
    out.update(_store_metrics(cold["store_ns"], cold["store_bytes"], len(cells), warm))
    return out


def _sim_fabric_metrics(ctx, checker, workload, seed, jobs, results) -> Dict[str, float]:
    """Store metrics for a simulation workload, whose cold loop never enters
    the fabric: the pool metrics read 0.  The cells the traced loop ran are
    stored here and re-served by an instrumented warm pass."""
    store_dir = ctx.fresh_dir("store")
    store = ResultCache(store_dir)
    store_ns = []
    for job, result in zip(jobs, results):
        if result is not None:
            begin = time.perf_counter_ns()
            store.store(job_key(job), result)
            store_ns.append(time.perf_counter_ns() - begin)
    stored_bytes = sum(p.stat().st_size for p in store_dir.glob("*.pkl"))
    _wall, warm = sweep_pass(ctx, checker, workload, seed, store_dir, 1,
                             cold=False, trace=True, limit=len(results))
    shutil.rmtree(store_dir, ignore_errors=True)
    out = {"fabric.pool_start_s": 0.0, "fabric.overhead_s": 0.0,
           "fabric.worker_busy_ratio": 0.0, "fabric.retries": 0.0}
    out.update(_store_metrics(store_ns, stored_bytes, len(results), warm))
    return out


def _store_metrics(store_ns, stored_bytes, cells, warm) -> Dict[str, float]:
    cached = sum(1 for c in warm["cells"] if c["status"] == "cached")
    return {
        "fabric.store.load_ms": statistics.fmean(warm["load_ns"]) / 1e6,
        "fabric.store.store_ms": statistics.fmean(store_ns) / 1e6 if store_ns else 0.0,
        "fabric.store.bytes_per_cell": stored_bytes / max(1, cells),
        "fabric.store.hit_ratio": cached / max(1, len(warm["cells"])),
        "fabric.job_key_ms": warm["job_key_ns"] / 1e6,
    }

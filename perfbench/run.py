"""Repo benchmark: simulator and figure-pipeline host performance.

Run from the root of a checkout:

    python3 perfbench/run.py --workload server_itp --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs the traced pass and reports the per-layer metrics instead.  Every
metric is printed by name with its unit, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A record of the run (environment, samples, percentiles)
is written under ``.perfbench/runs/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"

#: Worker processes for figure_sweep: ``python -m repro.experiments
#: --workers auto`` capped at 2, so the sweep fits small machines.
MAX_WORKERS = 2

#: Percentiles considered for the tail figure of a sample set.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values, higher_is_better: bool = False):
    """The worst-side percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``, or ``None`` with fewer than 20 samples.
    For a higher-is-better metric the worse side is the low tail.
    """
    n = len(values)
    ordered = sorted(values, reverse=higher_is_better)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            rank = min(n - 1, max(0, int(round(pct / 100.0 * n)) - 1))
            return pct, ordered[rank]
    return None


def summarize(samples) -> dict:
    """Count, median and slow tail of a set of timing samples."""
    found = tail(samples)
    return {
        "n": len(samples),
        "median": statistics.median(samples) if samples else None,
        "tail_percentile": found[0] if found else None,
        "tail": found[1] if found else None,
    }


def source_digest() -> str:
    """Content hash of the simulator sources (the checkout may not be git)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:20]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def environment(seed: int, workers: int) -> dict:
    import numpy

    from cells import pool_index, workload_seeds

    return {
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "seed": seed,
        "pool_index": pool_index(seed),
        "generator_seeds": workload_seeds(pool_index(seed)),
        "sweep_workers": workers,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # The benchmark pins every simulator knob itself: drop the REPRO_*
    # environment (engine, workers, faults, checks) for this process and
    # its children.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    # numpy's BLAS starts no threads here or in the children: they would
    # only compete for the host's few cores.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))

    import measure
    from cells import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    reference = json.loads((BENCH / "reference.json").read_text())
    from cells import reference_header

    if reference["header"] != reference_header():
        print("perfbench: reference.json was made for other cell settings; "
              "regenerate it with perfbench/make_reference.py", file=sys.stderr)
        return 2

    workers = max(1, min(MAX_WORKERS, nproc()))
    run_dir = ROOT / ".perfbench"
    work = run_dir / f"work-{os.getpid()}"
    # Children keep compiled bytecode in the run's own cache, as an
    # installed package would, instead of compiling every module in every
    # fresh process.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]),
               PYTHONPYCACHEPREFIX=str(work / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    ctx = measure.Context(root=ROOT, work=work, env=env, workers=workers)
    checker = measure.Checker.for_run(reference, args.workload, args.seed)
    defined = spec["per_layer"] if args.trace else spec["end_to_end"]
    started = time.time()
    try:
        # Untimed: fills the bytecode cache before any fresh process is timed.
        ctx.run_child("setup", "--workload", args.workload, "--seed", str(args.seed))
        run = measure.traced if args.trace else measure.untraced
        outcome = run(ctx, checker, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for metric in defined:
        value = outcome.metrics.get(metric["name"])
        if value is None or not math.isfinite(value):
            checker.problems.append(f"metric {metric['name']} was not measured")
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    correct = checker.failed == 0 and not checker.problems

    for metric in defined:
        if metric["name"] in metrics:
            print(f"{metric['name']:<36} {metrics[metric['name']]['value']:.6g} {metric['unit']}")
    print(f"{'error_rate':<36} {checker.error_rate:.6g} "
          f"({checker.failed} failed / {checker.attempted} cells)")
    if outcome.raw:
        spawns = outcome.samples["warm_spawn_s"] + outcome.samples["setup_spawn_s"]
        print(f"host speed factor {outcome.speed_factor:.4f}; spawn probe median "
              f"{statistics.median(spawns):.4f} s; unscaled: " + ", ".join(
                  f"{name} {value:.6g}" for name, value in outcome.raw.items()))
    for line in outcome.lines:
        print(line)
    for problem in checker.problems:
        print(f"problem: {problem}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "started": started,
        "environment": environment(args.seed, workers),
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "error_rate": checker.error_rate,
        "problems": checker.problems,
        "metrics": metrics,
        "raw_metrics": outcome.raw,
        "speed_factor": outcome.speed_factor,
        "cell_samples": {cell: len(v) for cell, v in outcome.cell_seconds.items()},
        "cell_seconds": outcome.cell_seconds,
        "cell_probes": outcome.cell_probes,
        "samples": outcome.samples,
        "summary": {name: summarize(values) for name, values in outcome.samples.items()},
        "cell_summary": {cell: summarize(times) for cell, times in outcome.cell_seconds.items()},
    }
    runs = run_dir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started)}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"run record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fresh-process parts of the benchmark; ``run.py`` starts these.

``setup``  import the simulator, build the first cell's ``System`` and
           ``Core`` and pull its first trace record, then report the
           moment that happened (``time.monotonic``, which is the same
           clock in every process of the machine).
``sweep``  run the workload's matrix through ``ParallelRunner.run_iter``
           against a result store directory: a cold pass when the store
           is empty, a warm pass when it holds every cell.  Reports the
           moment of the first dispatch, each cell's outcome and digest,
           and peak memory.  With ``--trace`` the store and ``job_key``
           are timed from outside as well.

Each mode prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from cells import digest, instructions, jobs_for
from repro.core.cpu import Core
from repro.core.system import System
from repro.fabric import ParallelRunner, ResultCache, job_key

#: Passes over the matrix when timing ``job_key`` (a warm pass calls it
#: once per cell, too few calls for a steady figure).
JOB_KEY_PASSES = 20


class TimedStore(ResultCache):
    """A result store that times every load and store it serves."""

    def __init__(self, directory) -> None:
        super().__init__(directory)
        self.load_ns = []
        self.store_ns = []

    def load(self, key):
        start = time.perf_counter_ns()
        try:
            return super().load(key)
        finally:
            self.load_ns.append(time.perf_counter_ns() - start)

    def store(self, key, result) -> None:
        start = time.perf_counter_ns()
        try:
            super().store(key, result)
        finally:
            self.store_ns.append(time.perf_counter_ns() - start)


def setup(args) -> dict:
    job = jobs_for(args.workload, args.seed)[0]
    workload = job.workloads[0]
    system = System(job.config, workload.size_policy)
    Core(system, thread_id=0)
    next(workload.record_stream())
    return {"ready": time.monotonic()}


def sweep(args) -> dict:
    jobs = jobs_for(args.workload, args.seed)[:args.limit]
    runner = ParallelRunner(workers=args.workers, cache_dir=args.store, progress=False)
    store = None
    if args.trace:
        store = runner.cache = TimedStore(args.store)
    dispatch = time.monotonic()
    cells = []
    for index, report, result in runner.run_iter(jobs):
        cell = {
            "cell": report.cell,
            "status": report.status,
            "attempts": report.attempts,
            "elapsed": report.elapsed,
            "at": time.monotonic(),
        }
        if result is not None:
            cell["digest"] = digest(result.metrics)
            cell["instructions"] = instructions(jobs[index], result)
        cells.append(cell)
    # Pool workers are joined by now, so RUSAGE_CHILDREN holds the largest.
    out = {
        "dispatch": dispatch,
        "workers": runner.workers,
        "cells": cells,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_child_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if store is not None:
        start = time.perf_counter_ns()
        for _ in range(JOB_KEY_PASSES):
            for job in jobs:
                job_key(job)
        out["job_key_ns"] = (time.perf_counter_ns() - start) / (JOB_KEY_PASSES * len(jobs))
        out["load_ns"] = store.load_ns
        out["store_ns"] = store.store_ns
        out["store_bytes"] = sum(p.stat().st_size for p in store.directory.glob("*.pkl"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "sweep"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--limit", type=int, help="run only the first LIMIT cells")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    out = setup(args) if args.mode == "setup" else sweep(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

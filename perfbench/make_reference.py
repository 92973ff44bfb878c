"""Write ``perfbench/reference.json``: the metric digest of every cell.

The benchmark checks each cell it runs against these digests.  Regenerate
only when a change is meant to alter simulated results (or the cell
settings in ``cells.py``), and say so in the change:

    PYTHONPATH=src:perfbench python3 perfbench/make_reference.py [--workers 2]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from cells import POOL, WORKLOADS, digest, jobs_for, reference_header
from repro.fabric import ParallelRunner

OUTPUT = Path(__file__).resolve().parent / "reference.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    runner = ParallelRunner(workers=args.workers, progress=False)
    digests = {}
    for workload in WORKLOADS:
        digests[workload] = {}
        for index in range(POOL):
            jobs = jobs_for(workload, index)
            results = runner.run(jobs)
            digests[workload][str(index)] = {
                job.cell: digest(result.metrics) for job, result in zip(jobs, results)
            }
            print(f"{workload} pool entry {index}: {len(jobs)} cells", file=sys.stderr)
    OUTPUT.write_text(json.dumps({"header": reference_header(), "digests": digests},
                                 indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

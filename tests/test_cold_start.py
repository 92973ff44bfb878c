"""What a fresh process imports before it simulates anything.

Building a job matrix and re-serving it from a filled result store must
not load NumPy (only trace generation draws random numbers) or the
process-pool machinery (only a pool that runs cells needs it).  Each check
runs in a fresh interpreter, since this one has imported both long ago.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Modules a cached re-run must not import.
HEAVY = ("numpy", "multiprocessing", "concurrent.futures.process")

CHILD = """
import json
import sys

import repro
import repro.experiments
import repro.fabric
from repro.experiments.runner import config_for
from repro.fabric import ParallelRunner, SimJob
from repro.workloads import server_suite

HEAVY = {heavy!r}


def loaded():
    return [name for name in HEAVY if name in sys.modules]


mode, store = sys.argv[1], sys.argv[2]
out = {{}}
suite = server_suite(8)
jobs = [
    SimJob(config_for(label), (workload,), 500, 1500, label=label)
    for label in ("lru", "itp")
    for workload in suite[:2]
]
out["after_build"] = loaded()
runner = ParallelRunner(workers=1 if mode == "fill" else 2, cache_dir=store, progress=False)
runner.run(jobs)
out["statuses"] = [cell.status for cell in runner.last_report.cells]
out["after_run"] = loaded()
next(suite[0].record_stream())
out["after_record"] = loaded()
print(json.dumps(out))
"""


def run_child(mode, store):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_FAULTS", None)
    child = subprocess.run(
        [sys.executable, "-c", CHILD.format(heavy=HEAVY), mode, str(store)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_cached_rerun_imports_neither_numpy_nor_the_pool(tmp_path):
    fill = run_child("fill", tmp_path)
    assert fill["statuses"] == ["ok"] * 4
    # Simulating imports NumPy; the inline runner still needs no pool.
    assert "numpy" in fill["after_run"]
    assert "concurrent.futures.process" not in fill["after_run"]

    warm = run_child("warm", tmp_path)
    assert warm["after_build"] == []
    assert warm["statuses"] == ["cached"] * 4
    assert warm["after_run"] == []
    # Pulling one record is what loads NumPy.
    assert warm["after_record"] == ["numpy"]

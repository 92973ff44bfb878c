"""Fold perfbench run records into ``BENCH_perfbench.json``: ``python3 tools/bench_ledger.py``.

One row per (git commit, workload) of the ``--trace 0`` records in ``.perfbench/runs/`` made in a
clean checkout of the commit: seeds, run count, summed failed cells and each end-to-end metric's
median.  Rows already in the ledger are kept."""

import functools
import hashlib
import io
import json
import statistics
import subprocess
import tarfile
import time
from pathlib import Path, PurePosixPath

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "BENCH_perfbench.json"
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


@functools.cache
def source_digest(commit):
    """perfbench's ``source_digest`` of ``src/`` at ``commit`` (None if unknown)."""
    out = subprocess.run(["git", "archive", commit, "src"], cwd=ROOT, capture_output=True)
    if out.returncode:
        return None
    digest = hashlib.sha256()
    with tarfile.open(fileobj=io.BytesIO(out.stdout)) as tar:
        files = [m for m in tar.getmembers() if m.isfile() and m.name.endswith(".py")]
        for member in sorted(files, key=lambda m: PurePosixPath(m.name)):
            digest.update(str(PurePosixPath(member.name).relative_to("src")).encode())
            digest.update(tar.extractfile(member).read())
    return digest.hexdigest()[:20]


def ledger_row(commit, workload, records):
    values = {n: [r["metrics"][n]["value"] for r in records if n in r["metrics"]] for n in METRICS}
    return {"commit": commit, "workload": workload,
            "date": time.strftime("%Y-%m-%d", time.gmtime(min(r["started"] for r in records))),
            "seeds": sorted({r["environment"]["seed"] for r in records}), "runs": len(records),
            "failed": sum(r["failed"] for r in records),
            "median": {n: statistics.median(v) if v else None for n, v in values.items()}}


def main():
    rows = {(r["commit"], r["workload"]): r
            for r in (json.loads(LEDGER.read_text()) if LEDGER.exists() else [])}
    groups = {}
    for path in sorted((ROOT / ".perfbench" / "runs").glob("*.json")):
        record = json.loads(path.read_text())
        commit, digest = record["environment"]["git_commit"], record["environment"]["source_digest"]
        if record["trace"] == 0 and commit and digest == source_digest(commit):
            groups.setdefault((commit, record["workload"]), []).append(record)
    rows.update({key: ledger_row(*key, records) for key, records in groups.items()})
    LEDGER.write_text(json.dumps(sorted(rows.values(), key=lambda r: r["date"]), indent=1) + "\n")


if __name__ == "__main__":
    main()

"""The speed ledger script (tools/bench_ledger.py) on synthetic run records."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_ledger.py"


@pytest.fixture
def ledger():
    spec = importlib.util.spec_from_file_location("bench_ledger", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_record(seed, failed, sim_kips, *, trace=0, digest="d1", started=1_800_000_000.0):
    metrics = {name: {"value": float(seed), "unit": "-"} for name in
               ("sweep_cold_s", "sweep_warm_s", "setup_s", "peak_rss_mb")}
    metrics["sim_kips"] = {"value": sim_kips, "unit": "kinstr/s"}
    return {"workload": "server_itp", "trace": trace, "started": started, "failed": failed,
            "environment": {"git_commit": "c1", "source_digest": digest, "seed": seed},
            "metrics": metrics}


def test_row_from_two_records(ledger):
    row = ledger.ledger_row("c1", "server_itp", [run_record(5, 0, 100.0), run_record(3, 2, 140.0)])
    assert row["commit"] == "c1"
    assert row["workload"] == "server_itp"
    assert row["date"] == "2027-01-15"
    assert row["seeds"] == [3, 5]
    assert row["runs"] == 2
    assert row["failed"] == 2
    assert row["median"]["sim_kips"] == 120.0
    assert row["median"]["setup_s"] == 4.0
    assert list(row["median"]) == ledger.METRICS


def test_main_folds_clean_untraced_records_and_keeps_rows(ledger, tmp_path, monkeypatch):
    runs = tmp_path / ".perfbench" / "runs"
    runs.mkdir(parents=True)
    records = [
        run_record(0, 0, 100.0),
        run_record(1, 0, 120.0),
        run_record(2, 0, 999.0, trace=1),        # traced: per-layer metrics only
        run_record(3, 0, 999.0, digest="dirty"),  # made in a modified tree
    ]
    for index, record in enumerate(records):
        (runs / f"{index}.json").write_text(json.dumps(record))
    old = ledger.ledger_row("c0", "spec_data", [run_record(9, 0, 1.0, started=0.0)])
    (tmp_path / "BENCH_perfbench.json").write_text(json.dumps([old]))
    monkeypatch.setattr(ledger, "ROOT", tmp_path)
    monkeypatch.setattr(ledger, "LEDGER", tmp_path / "BENCH_perfbench.json")
    monkeypatch.setattr(ledger, "source_digest", {"c1": "d1"}.get)

    ledger.main()

    rows = json.loads((tmp_path / "BENCH_perfbench.json").read_text())
    assert [(r["commit"], r["workload"]) for r in rows] == [("c0", "spec_data"),
                                                             ("c1", "server_itp")]
    assert rows[1]["seeds"] == [0, 1]
    assert rows[1]["median"]["sim_kips"] == 110.0

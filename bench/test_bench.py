"""Checks of the benchmark itself, on a 2-cell slice of each workload.

    python3 -m pytest bench/
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from compare import verdict

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def bench(tmp_path: Path, *args: str, bench_dir: Path = BENCH_DIR):
    """Run bench/run.py on a 2-cell slice; (exit code, stdout lines,
    final JSON object or None)."""
    cmd = [sys.executable, str(bench_dir / "run.py"), "--seconds", "0",
           "--max-cells", "2", "--src", str(ROOT / "src"),
           "--out", str(tmp_path / "record.json"), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    final = None
    if lines and lines[-1].startswith("{"):
        final = json.loads(lines[-1])
    return proc.returncode, lines, final


def assert_metrics(workload: str, lines, final, metrics) -> None:
    assert set(final["metrics"]) == {m["name"] for m in metrics}
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            printed[parts[1]] = (float(parts[2]), parts[3])
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        assert printed[name][1] == unit, name
        assert final["metrics"][name] == {"value": printed[name][0],
                                          "unit": unit}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(tmp_path, workload):
    code, lines, final = bench(tmp_path, "--workload", workload)
    assert code == 0, lines
    assert final["correct"] and final["failed"] == 0
    assert final["attempted"] >= 2
    assert f"{workload} golden: checked" in lines
    assert_metrics(workload, lines, final, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert final["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(tmp_path, workload):
    """Per-layer metrics printed with units, counts that repeat exactly
    at one seed, and a trace whose spans nest inside their parents."""
    code, lines, first = bench(tmp_path, "--workload", workload,
                               "--trace", "1")
    assert code == 0, lines
    assert_metrics(workload, lines, first, SPEC["per_layer"])
    code, _lines, second = bench(tmp_path, "--workload", workload,
                                 "--trace", "1")
    assert code == 0
    for metric in SPEC["per_layer"]:
        if metric["unit"] == "count":
            name = metric["name"]
            assert first["metrics"][name] == second["metrics"][name], name

    trace = json.loads((tmp_path / f"trace-{workload}-s1.json").read_text())
    events = {event["args"]["span"]: event for event in trace["traceEvents"]}
    assert events
    for event in events.values():
        assert event["ph"] == "X" and event["dur"] >= 0
        parent = events.get(event["args"]["parent"])
        if parent is None:
            continue
        assert parent["ts"] <= event["ts"]
        assert event["ts"] + event["dur"] <= parent["ts"] + parent["dur"]
        assert event["args"]["cell"] == parent["args"]["cell"]


def copy_bench(tmp_path: Path) -> Path:
    """A checkout holding only BENCHMARK.json and bench/."""
    checkout = tmp_path / "checkout"
    shutil.copytree(BENCH_DIR, checkout / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", checkout)
    return checkout


def test_flipped_golden_entry_fails_the_run(tmp_path):
    code, _lines, final = bench(tmp_path, "--workload", "fig7-spec17")
    assert code == 0 and final["failed"] == 0
    record = json.loads((tmp_path / "record.json").read_text())
    label = sorted(record["workloads"]["fig7-spec17"]["runs"][0]["outputs"])[0]

    checkout = copy_bench(tmp_path)
    golden_path = checkout / "bench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    golden["seeds"]["1"][label][0] += 1
    golden_path.write_text(json.dumps(golden))
    code, lines, final = bench(tmp_path, "--workload", "fig7-spec17",
                               bench_dir=checkout / "bench")
    assert code == 1
    assert not final["correct"] and final["failed"] >= 1
    failed = [line for line in lines if " FAILED " in line]
    assert len(failed) == final["failed"]
    assert all(line.startswith(f"fig7-spec17 FAILED {label}: ")
               for line in failed)


def test_seed_without_golden_is_recorded_absent(tmp_path):
    code, lines, final = bench(tmp_path, "--workload", "fig7-spec17",
                               "--seed", "3")
    assert code == 0 and final["correct"]
    assert "fig7-spec17 golden: absent" in lines


def test_fails_without_simulator_sources(tmp_path):
    checkout = copy_bench(tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig7-spec17",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_verdict_labels():
    old = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    wide = [70.0, 130.0, 85.0, 115.0, 100.0, 75.0, 125.0, 90.0, 110.0, 95.0]

    def label(new, old=old, name="grid_s", **kwargs):
        return verdict(name, old, new, "lower", 0.1, **kwargs)["verdict"]

    assert label([v * 0.8 for v in old]) == "gain"
    assert label([v * 0.8 for v in old], failed_new=1) == "within bound"
    assert label([v * 1.02 for v in old]) == "within bound"
    assert label([v * 1.2 for v in old]) == "regression"
    assert label([v * 1.02 for v in wide], old=wide) == "unresolved"
    # every new run worse than every old run: a regression however wide
    assert label([v * 2 for v in wide], old=wide) == "regression"
    # a higher-is-better metric gets worse when it falls
    assert verdict("sim_insts_per_s", old, [v * 0.8 for v in old],
                   "higher", 0.1)["verdict"] == "regression"
    # set-up: 0.2 s -> 0.24 s is past the bound but under the 0.05 s floor
    setup = [v / 500 for v in old]
    assert label([v * 1.2 for v in setup], old=setup,
                 name="setup_s") == "within bound"
    assert label([v * 1.3 for v in setup], old=setup,
                 name="setup_s") == "regression"

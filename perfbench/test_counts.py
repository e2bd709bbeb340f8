"""Checks of the benchmark itself.

Run from the checkout root (takes a few minutes):

    python3 -m pytest perfbench/test_counts.py

Two traced runs with the same seed must give identical counts: calls,
cells, symbols, bits, decode rounds, the fast-path ratio, calls per op
kind and the three end-to-end ratio metrics.  These are the counts a
later change may cite as a claim.  The metric names printed must also
match the ones declared in BENCHMARK.json.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
RATIOS = ("reconstruct_read_ratio", "regenerate_read_ratio", "stored_bytes_ratio")


def run(workload: str, trace: int, seconds: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "self_check=pass" in proc.stdout or not trace
    return json.loads(proc.stdout.splitlines()[-1])


def traced_counts(workload: str) -> dict:
    result = run(workload, trace=1)
    summary = json.loads((HERE / "out" / f"trace-{workload}-seed{SEED}.json").read_text())
    counts = {
        name: m["value"] for name, m in result["metrics"].items()
        if not name.endswith("_s") and name != "trace.overhead_pct"
    }
    counts.update({name: summary["end_to_end_traced"][name] for name in RATIOS})
    counts["calls_by_op"] = summary["calls_by_op"]
    counts["fast_path"] = summary["fast_path"]
    return counts


@pytest.mark.parametrize("workload", ["healthy", "byzantine", "files"])
def test_traced_counts_repeat_exactly(workload):
    first = traced_counts(workload)
    second = traced_counts(workload)
    assert first == second


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = run("byzantine", trace=0)
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert plain["metrics"][m["name"]]["unit"] == m["unit"]
        assert plain["metrics"][m["name"]]["value"] != 0
    traced = run("byzantine", trace=1)
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]

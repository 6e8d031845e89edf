"""Checks of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from compare import compare  # noqa: E402


def run_bench(root: Path, workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", ["corpus-n2", "solve-n8", "oracle-n14"])
def test_one_seed_gives_identical_counts(workload):
    results = []
    for _ in range(2):
        proc = run_bench(HERE.parent, workload, seed=3, trace=1)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    for r in results:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] != "s"}
              for r in results]
    assert counts[0] and counts[0] == counts[1]


def test_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "corpus-n2", seed=0, trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _result(backend: str) -> dict:
    return {
        "workload": "corpus-n2", "trace": 0, "attempted": 1, "failed": 0,
        "fingerprint": {"kernel_backend": backend},
        "report": {"inst_per_s": {"value": 100.0, "unit": "1/s"}}, "per_layer": {},
    }


def test_compare_refuses_mixed_kernel_backends():
    with pytest.raises(ValueError, match="kernel backends"):
        compare([_result("ref")], [_result("fast")])
    assert any("inst_per_s" in line for line in compare([_result("ref")], [_result("ref")]))

"""Smoke tests of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench(*args, root=BENCH.parent):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout


def result_of(stdout):
    return json.loads(stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_timed_run_reports_every_end_to_end_metric(workload):
    code, log = bench("--workload", workload, "--seed", "3", "--seconds", "1")
    assert code == 0, log
    result = result_of(log)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_rate" in log and "calibration" in log


def test_traced_run_reports_every_layer_metric():
    code, log = bench("--workload", "stars", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert code == 0, log
    metrics = result_of(log)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["star_engine.families"]["value"] == 19 + 42
    assert metrics["star_engine.ClosureTable.entries"]["value"] > 0
    assert 0 < metrics["star_engine.table.useful_ratio"]["value"] < 1
    assert metrics["kunz_lab.structure_report.s"]["value"] == 0
    assert "SELF-CHECK FAILED" not in log


def test_gate_checks_exit_code_digest_and_values():
    inv = run.WORKLOADS["stars"][1][0]
    right = b'{"results": {"star_count": 19}}'
    wrong = b'{"results": {"star_count": 20}}'

    def pin(out):
        return {inv.key: hashlib.sha256(out).hexdigest()}

    assert run.gate(inv, 0, right, pin(right)) == []
    assert run.gate(inv, 1, right, pin(right)) == ["exit code 1"]
    assert run.gate(inv, 0, wrong, pin(right))
    assert run.gate(inv, 0, wrong, pin(wrong)) == ["star_count 20 != 19"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, log = bench("--workload", "certify", "--seed", "1", "--seconds", "1", root=tmp_path)
    assert code != 0
    assert '"correct"' not in log

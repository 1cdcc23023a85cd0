"""The benchmark's answer gate in tier-1: every invocation pinned in
perfbench/answers.json, run as perfbench/run.py runs it, prints stdout with
the pinned sha256. A change of output bytes fails here, not only in a later
benchmark run."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
PINNED = json.loads((BENCH / "answers.json").read_text())


def argv(key):
    """The command perfbench runs for an answers.json key: "cli ARGS" through
    the CLI with --jobs 1, "axioms ARGS" through the library workload with
    --seed 1."""
    kind, *args = key.split()
    if kind == "cli":
        return [sys.executable, "-m", "starlab.cli", *args, "--jobs", "1"]
    assert kind == "axioms", key
    return [sys.executable, str(BENCH / "library_workload.py"), *args, "--seed", "1"]


@pytest.mark.parametrize("key", sorted(PINNED))
def test_pinned_answer(key):
    env = {k: v for k, v in os.environ.items() if k != "STARLAB_CACHE_DIR"}
    env["PYTHONPATH"] = str(ROOT / "src")
    run = subprocess.run(argv(key), cwd=ROOT, env=env, capture_output=True, timeout=300)
    assert run.returncode == 0, run.stderr.decode(errors="replace")
    assert hashlib.sha256(run.stdout).hexdigest() == PINNED[key]

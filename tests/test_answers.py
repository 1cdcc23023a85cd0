"""The benchmark's answer gate in tier-1: every invocation pinned in
perfbench/answers.json, run as perfbench/run.py runs it, prints stdout with
the pinned sha256. A change of output bytes fails here, not only in a later
benchmark run. A few invocations the benchmark does not run are pinned here
the same way."""

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
# the digit-slot packed layout (q = 4), a counterexample verdict, a
# closed-form count check, and the n = 4 lab verdicts on the digit-slot and
# bitsliced layouts
PINNED.update({
    "cli kunz subspace-orbits --n 4 --q 4":
        "1a4eaade0fe46526c5cfd06c0a5895ab4487dcfefbebd494d746f693cdea8c61",
    "cli kunz subspace-orbits --n 4 --q 3":
        "0c9b75d0d84be5d053ef91e7d17ec81138965d19d5123485fec2fc14ec7f19cd",
    "cli kunz lower-bound --n 4 --q 3":
        "83fb92d84358b3913c8dfcc6d1cb93a160d746b2dd58fbb1b4643f67c4d6d9c1",
    "cli ring enum-stars --gens 4,5,7 --q 4":
        "d67922c377cbd8c39823cc8073eb7401510911d26e346606e5e70870a42015ea",
    "cli kunz lemmas --gens 4,5,7 --q 4":
        "6eed299195062a02c8b6389357633f3655f8bfca21acef6acdf1eaea5cf356b6",
    "cli kunz counterexample --gens 5,6,7,9 --q 2":
        "4a603d65aa0d28f8f8484df792629cde960666de2788cd28d9ccae3bf1892b2e",
    "cli kunz formula-check --q 3":
        "cf6d69a88d5e7ede423aab7e1db431bb6c77a671b2a20ee1f4819bd9d44ed356",
})


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

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
# closed-form count check, the n = 4 lab verdicts on the digit-slot and
# bitsliced layouts, the lemma suite on the bitsliced layout, and the n = 6
# certificate, semigroup reports up to g = 89,699, and labs, star counts
# and a certificate over extension fields up to F_27 and F_125; labs and
# certificates whose orbits take the member route of partition_subspaces on
# the F_2 and digit-slot layouts, and the certificate inside a counterexample;
# the lemma suite on the n = 6 family member, off the family, over F_5 and
# over F_3 with odd g
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
    "cli kunz lemmas --gens 5,6,7,9 --q 3":
        "5d5d808b077dc7c3d67b2945061bd6d6c203e3ce6b37f527211c98f03a9051cf",
    "cli kunz lower-bound --n 6 --q 2":
        "07f2ff7c4bbee0bdcec356ce9b7b1c1d0043d32b929e32550d31183c1b5f800a",
    "cli sgp info --gens 4,5,7":
        "cc7082f95bbc4f9ed2308eda7056390161b89f395f7b95fab4acbf1722a8779d",
    "cli sgp info --gens 2,3":
        "828da9aba250364428880ac898b2a01df31fdd45e7b9b9f1a91ae3ecce703135",
    "cli sgp info --gens 5,6,7,9":
        "9c85f0ed88aba9f66eae53ea9cebbf75a3b7a9157c0a5a7aab5fac814ef80f13",
    "cli sgp info --gens 3,8,13":
        "0f032837c3fa340d3dae7ae43677e00d4798d42fb77c36d3c65c149e243fc07d",
    "cli sgp info --gens 300,301":
        "46b72e8f0cf6279e6b93fec1e27036341e9b09e48bbe7860d0933f905f0ad34c",
    "cli kunz subspace-orbits --n 4 --q 8":
        "32bf2453ebb28d2b68da68d76bc74dee10e8fc13bf83dc4d0659694bfd466345",
    "cli kunz subspace-orbits --n 4 --q 9 --field-poly 2,1,1":
        "a9752f149f5ec9e49850610a8aec918930a86af71b86f93474cb1a4d6e06f263",
    "cli kunz subspace-orbits --n 3 --q 125":
        "e903b7a2dcf25671963305950dbdce2ff9c112c9bca7e3456d8c1cb45d03981d",
    "cli ring enum-stars --gens 3,4,5 --q 16":
        "882e700ff41afa41596737971aa5a1a6ae3a3428d110836152818a62d2cba727",
    "cli ring enum-stars --gens 3,4,5 --q 27":
        "8075a7f49a5a5159edb1e65d6cbed0ef22e5a74671fcff3a82e412627013f111",
    "cli kunz lower-bound --n 4 --q 8":
        "478cb58d9cb2f732492594cec9828cfb8b8fe0a482741a34e0382e825ceaf9bd",
    "cli kunz subspace-orbits --n 5 --q 4":
        "c8c892bfdb338451a1199a468d8a74829e852ef225d9e7192b231028b5fa3f31",
    "cli kunz subspace-orbits --n 6 --q 2":
        "27ff49e4e562a26c8a306603529fe83809b67bc42718e16f61893b76d70fb050",
    "cli kunz subspace-orbits --n 7 --q 2":
        "eea2c77bae9cd0880b4cbe606c92be224d06a2d4751d911e56ed1a4a165bab0a",
    "cli kunz lower-bound --n 5 --q 2":
        "d02c90423808d09f764780fcc73d322f973981e3b6a18b123b2ed42655f453bc",
    "cli kunz lower-bound --n 5 --q 4":
        "af557f799ba13ede7f4e38b8256292e6250668b900207be4d64ded4ebbfe0806",
    "cli kunz counterexample --gens 4,5,7 --q 3":
        "86df0121141ec0961a950680bf59c34c64a6a95f449bc3c7a5b0b0071f9e97db",
    "cli kunz lemmas --gens 6,7,8,9,11 --q 2":
        "e9666dd49cfca7ec9fc16e88d524223bf6221214a9d946de618b3cb73ca966d6",
    "cli kunz lemmas --gens 4,7,9 --q 2":
        "a1164a0cae9b20e70916c070fef9daa386be0b17be9c3ad5fa5b9d8fed3b8bc6",
    "cli kunz lemmas --gens 4,5,7 --q 5":
        "1bbf049a40f1c85844548871e997bc0f10273ad4ffcce7c56a451989e89ea01a",
    "cli kunz lemmas --gens 3,7,11 --q 3":
        "59ee8b0920f06db2155fde65c905a451a5f3aea608f335dd86a1a8594f9723c6",
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

"""The perfbench tracer (perfbench/layers.py) wraps starlab functions by
name. A refactor that renames or removes one of them must fail here, not
only in a later traced benchmark run."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import starlab

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    traced = layers.TRACED
    assert traced
    # the same look-up the tracer's install() makes: the attribute is
    # defined on its owner itself, and is a function or a classmethod
    unresolved = []
    for module, path in sorted(traced):
        owner = importlib.import_module("starlab." + module)
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if isinstance(raw, classmethod):
            raw = raw.__func__
        if not callable(raw):
            unresolved.append(f"{module}.{path}")
    assert unresolved == []


@pytest.mark.parametrize("q", ["2", "3"])
def test_traced_run_matches_untraced(tmp_path, q):
    # the tracer's hooks also read the arguments of what they wrap: the
    # table.useful hook reads the rows of the translate and the ideal's
    # N-wide view, and reduces them by the unwrapped Subspace.reduce. A
    # change of their shape must fail here too, on the XOR layout of F_2
    # and on the bitsliced one of F_3 that the stars workload runs
    src = os.path.dirname(os.path.dirname(starlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("STARLAB_CACHE_DIR", None)
    argv = ["ring", "enum-stars", "--gens", "4,5,7", "--q", q, "--jobs", "1"]
    runs = [
        subprocess.run(cmd, capture_output=True, env=env, timeout=120)
        for cmd in (
            [sys.executable, "-m", "starlab.cli", *argv],
            [sys.executable, str(LAYERS), str(tmp_path / "trace"), "cli", *argv],
        )
    ]
    plain, traced = runs
    assert plain.returncode == traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    counters = json.loads((tmp_path / "trace.json").read_text())["counters"]
    assert 0 < counters["star_engine.table.useful"] <= counters["star_engine.table.translates"]


def test_traced_kunz_spans(tmp_path):
    # the CLI's command table must reach the kunz functions through the
    # module globals the tracer rewrites; an entry that holds the function
    # object itself runs it untraced
    src = os.path.dirname(os.path.dirname(starlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("STARLAB_CACHE_DIR", None)
    argv = ["kunz", "lower-bound", "--n", "4", "--q", "2", "--jobs", "1"]
    cmd = [sys.executable, str(LAYERS), str(tmp_path / "trace"), "cli", *argv]
    run = subprocess.run(cmd, capture_output=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    layers = json.loads((tmp_path / "trace.json").read_text())["layers"]
    for name in ("kunz_lab.lower_bound_certificate", "kunz_lab.subspace_lab"):
        assert layers[name]["calls"] >= 1, name

"""The perfbench tracer (perfbench/layers.py) wraps starlab functions by
name. A refactor that renames or removes one of them must fail here, not
only in a later traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

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

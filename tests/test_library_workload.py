"""The benchmark's library workload (perfbench/library_workload.py) calls
starlab's functions directly. It must keep running on their signatures, and
the overring T of its residue ring must be the very model whose stars it
enumerated, so one closure table serves both."""

import importlib.util
from pathlib import Path

from starlab import ring_model
from starlab.star_engine import ClosureTable

WORKLOAD = Path(__file__).resolve().parents[1] / "perfbench" / "library_workload.py"


def test_library_workload_shares_the_overring(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_library_workload", WORKLOAD)
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    # fresh models, so that no earlier test's closure table is reused
    monkeypatch.setattr(ring_model, "_MODELS", {})
    builds = []
    build = ClosureTable.build.__func__

    def counted(cls, ws):
        builds.append(ws.model)
        return build(cls, ws)

    monkeypatch.setattr(ClosureTable, "build", classmethod(counted))
    result = workload.run((4, 5, 6, 7), (4, 5, 7), 2, 1)
    assert result["star_count"] == 42
    assert result["residue_operations"] == 3
    assert len(builds) == 1

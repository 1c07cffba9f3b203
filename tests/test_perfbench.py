"""Contract with the benchmark: every perfbench workload runs against this
checkout and passes all of its output checks at seed 0.

The workloads module is imported from ``perfbench/workloads.py`` as it is,
so an API change that would break the benchmark fails here first.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["pipeline", "crossval", "sweep", "tensor"])
def test_workload_passes_its_checks(workloads, name, tmp_path):
    cls = workloads.WORKLOADS[name]
    wl = cls(0, tmp_path / name)
    wl.setup()
    gold = json.loads((PERFBENCH / "goldens.json").read_text())[name][str(wl.slot)][0]
    unit = wl.run(0)
    failed = [label for label, ok in cls.checks(unit.observed, gold) if not ok]
    assert failed == []

"""Checks of ``scripts/bench.py`` that run no benchmark."""

import importlib.util
from pathlib import Path

import pytest

from simnet import _kernels

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_script",
                                                  ROOT / "scripts" / "bench.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_against_label_equal_to_label_is_a_usage_error(bench, capsys):
    # both sides would share one results list and one BENCH_<label>.json
    with pytest.raises(SystemExit) as exc:
        bench.main(["--label", "same", "--against", str(ROOT),
                    "--against-label", "same", "--workloads", "sweep",
                    "--seeds", "0"])
    assert exc.value.code == 2
    assert "--against-label must differ from --label" in capsys.readouterr().err
    assert not (ROOT / "bench" / "BENCH_same.json").exists()


def test_backend_probe_matches_the_loaded_kernels(bench):
    assert bench.kernel_backend(ROOT) == ("c" if _kernels.load() else "python")

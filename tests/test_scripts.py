"""Smoke runs of the experiment scripts in ``scripts/`` on small corpora."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(name, argv, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        name.removesuffix(".py"), ROOT / "scripts" / name)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(sys, "argv", [name, *argv])
    mod.main()
    return capsys.readouterr().out


# 5x12 at mutation 0.3: 11 samples have no edge even at 0.70, and every
# Unlabeled prediction is an error, so the two error columns split exactly
SWEEP_STDOUT = """\
 thr%  accuracy  errors  unlabeled  no-conn
 70.0    0.8167      11         11       11
 71.0    0.7833      13         13       11
 72.0    0.6667      20         20       11
 73.0    0.5333      28         28       11
 74.0    0.4167      35         35       11
 75.0    0.3333      40         40       11
 76.0    0.3000      42         42       11
 77.0    0.2500      45         45       11
 78.0    0.2000      48         48       11
 79.0    0.1333      52         52       11
 80.0    0.0667      56         56       11
 81.0    0.0333      58         58       11
 82.0    0.0000      60         60       11
 83.0    0.0000      60         60       11
 84.0    0.0000      60         60       11
 85.0    0.0000      60         60       11
 86.0    0.0000      60         60       11
 87.0    0.0000      60         60       11
 88.0    0.0000      60         60       11
 89.0    0.0000      60         60       11
 90.0    0.0000      60         60       11
 91.0    0.0000      60         60       11
 92.0    0.0000      60         60       11
 93.0    0.0000      60         60       11
 94.0    0.0000      60         60       11
 95.0    0.0000      60         60       11

best threshold 70.0 (accuracy 0.8167)
11 samples isolated at every threshold: ['fam00-0000', 'fam00-0006', \
'fam01-0003', 'fam02-0003', 'fam02-0007', 'fam02-0010', 'fam03-0005', \
'fam03-0006'] ...
"""

PLANTED_STDOUT = """\
tensor   18 samples in <t>s
search   5 iterations (1 accepted) in <t>s
         baseline error 0.3889 -> best 0.3333
weights  api=0.2632  permission=0.2632  activity=0.2632  file=0.2105
classify accuracy 0.6667  modularity 0.7187  unlabeled 6  isolated 6
crossval 2 folds in <t>s
  fold 0  classification 0.5556  prediction 0.3333
  fold 1  classification 0.2222  prediction 0.3333
mean prediction accuracy 0.3333
"""


def test_sweep_thresholds_stdout_is_pinned(monkeypatch, capsys):
    out = _run("sweep_thresholds.py",
               ["--families", "5", "--per-family", "12", "--mutation-rate", "0.3",
                "--iterations", "5", "--lo", "70", "--hi", "95"],
               monkeypatch, capsys)
    assert out == SWEEP_STDOUT


def test_run_planted_experiment_reports_are_pinned(monkeypatch, capsys):
    out = _run("run_planted_experiment.py",
               ["--families", "3", "--per-family", "6", "--iterations", "5",
                "--k", "2"],
               monkeypatch, capsys)
    assert re.sub(r" in \d+\.\d\ds$", " in <t>s", out, flags=re.M) == PLANTED_STDOUT


@pytest.mark.parametrize("name,argv,message", [
    ("sweep_thresholds.py", ["--lo", "95", "--hi", "90"], "empty threshold range"),
    ("sweep_thresholds.py", ["--hi", "200"], "threshold must be in [0, 1]"),
    ("sweep_thresholds.py", ["--iterations", "0"], "iterations must be >= 1"),
    ("run_planted_experiment.py", ["--k", "9"], "fewer than k=9"),
    ("run_planted_experiment.py", ["--iterations", "0"], "iterations must be >= 1"),
])
def test_bad_argument_is_usage_error_before_any_search(name, argv, message,
                                                       monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(name, ["--families", "3", "--per-family", "6", *argv],
             monkeypatch, capsys)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err and "Traceback" not in err

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import simnet
import simnet.optimizer
from simnet import (FEATURES, Dataset, OptimizerConfig, Sample, SimilarityGraph,
                    SimilarityTensor, WeightVector, build_similarity_tensor,
                    classify, derive_seed, generate_planted, label_communities,
                    load_dataset, louvain, save_dataset)
from simnet.cli import (EXIT_DATA, EXIT_OK, EXIT_PIPELINE, EXIT_USAGE,
                        _threshold_list_arg, _write, build_parser, cmd_export_graph,
                        main, parse_args, parse_threshold, parse_weights)
from simnet.community import cluster
from export_oracle import export_texts
from test_similarity import CORRUPT_HEADERS, OUT_OF_RANGE, patch_pair


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "planted.jsonl"
    save_dataset(generate_planted(3, 8, 0.05, seed=1), path)
    return path


@pytest.fixture(scope="module")
def seed_sensitive_path(tmp_path_factory):
    """A noisy corpus whose 85% api-only graph partitions differently under
    different Louvain seeds."""
    path = tmp_path_factory.mktemp("noisy") / "planted.jsonl"
    save_dataset(generate_planted(4, 10, 0.3, 2), path)
    return path


class TestParseThreshold:
    def test_plain_percent(self):
        assert parse_threshold("90") == 90.0
        assert parse_threshold("82.5") == 82.5

    def test_unit_fraction_scales_to_percent(self):
        assert parse_threshold("0.9") == 90.0
        assert parse_threshold("0.425") == 42.5

    def test_one_means_one_percent_worth_of_fraction(self):
        # 1 sits on the fraction side of the rule: it is 100 percent
        assert parse_threshold("1") == 100.0
        assert parse_threshold("1.5") == 1.5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            parse_threshold("105")
        with pytest.raises(ValueError):
            parse_threshold("-3")
        with pytest.raises(ValueError):
            parse_threshold("nan")


class TestParseWeights:
    def test_four_values(self):
        w = parse_weights("0.4,0.3,0.2,0.1")
        assert w.as_tuple() == (0.4, 0.3, 0.2, 0.1)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="four"):
            parse_weights("0.5,0.5")

    def test_invalid_simplex_rejected(self):
        with pytest.raises(ValueError):
            parse_weights("1,1,1,1")
        with pytest.raises(ValueError):
            parse_weights("nan,0,0,1")


class TestExitCodes:
    def test_usage_error_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["cluster"])
        assert exc.value.code == 1

    def test_usage_error_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_usage_error_bad_threshold(self, dataset_path):
        for threshold in ("200", "nan"):
            with pytest.raises(SystemExit) as exc:
                main(["cluster", "--dataset", str(dataset_path),
                      "--threshold", threshold])
            assert exc.value.code == 1

    @pytest.mark.parametrize("flag,value", [("--iterations", "0"), ("--lr", "0"),
                                            ("--lr", "1.5"), ("--lr", "nan")])
    @pytest.mark.parametrize("command", ["optimize", "sweep", "crossval", "pipeline"])
    def test_bad_search_option_is_usage_error_before_any_work(
            self, dataset_path, tmp_path, capsys, command, flag, value):
        out, cache = tmp_path / "out", tmp_path / "tensor.bin"
        with pytest.raises(SystemExit) as exc:
            main([command, "--dataset", str(dataset_path), "--cache", str(cache),
                  flag, value, "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"simnet {command}: error:" in err and "Traceback" not in err
        assert not out.exists() and not cache.exists()

    @pytest.mark.parametrize("command,changed", [
        ("optimize", {}), ("sweep", {"iterations": 200}), ("crossval", {}),
        ("pipeline", {}),
    ])
    def test_search_defaults_are_optimizer_config_defaults(self, command, changed):
        args = parse_args([command, "--dataset", "d.jsonl", "--out", "out"])
        assert args.cfg == OptimizerConfig(**changed)

    def test_export_to_a_dot_path_is_usage_error(self, dataset_path, tmp_path,
                                                 capsys):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--dataset", str(dataset_path),
                  "--out", str(tmp_path / "g.dot")])
        assert exc.value.code == EXIT_USAGE
        assert "the DOT file would overwrite it" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        rc = main(["ingest", "--dataset", str(tmp_path / "absent.jsonl")])
        assert rc == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_malformed_record_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "family": "f", "api_sequence": ["x.y"]}\n'
                       "{not json}\n", encoding="utf-8")
        assert main(["ingest", "--dataset", str(bad)]) == EXIT_DATA

    def test_skip_invalid_downgrades_to_success(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "family": "f", "api_sequence": ["x.y"]}\n'
                       "{not json}\n", encoding="utf-8")
        rc = main(["ingest", "--dataset", str(bad), "--skip-invalid"])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["samples"] == 1

    def test_undecodable_line_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"id": "a", "api_sequence": ["x.y"]}\n'
                        b'{"id": "b\xff", "api_sequence": ["x.y"]}\n')
        assert main(["ingest", "--dataset", str(bad)]) == EXIT_DATA
        assert "line 2: invalid UTF-8" in capsys.readouterr().err
        assert main(["ingest", "--dataset", str(bad), "--skip-invalid"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["samples"] == 1

    def test_deep_nesting_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "api_sequence": ["x.y"]}\n' + "[" * 200_000 + "\n",
                       encoding="utf-8")
        assert main(["ingest", "--dataset", str(bad)]) == EXIT_DATA
        assert "line 2: invalid JSON (nesting too deep)" in capsys.readouterr().err
        assert main(["ingest", "--dataset", str(bad), "--skip-invalid"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["samples"] == 1

    @pytest.mark.parametrize("record,field", [
        ('{"id": "b\\ud800", "api_sequence": ["x.y"]}', "id"),
        ('{"id": "b", "api_sequence": ["x.y", "\\udc00"]}', "api_sequence"),
        ('{"id": "b", "api_sequence": [], "activity_names": ["\\ud800x"]}',
         "activity_names"),
    ], ids=["id", "api-token", "set-member"])
    def test_lone_surrogate_is_data_error(self, tmp_path, capsys, record, field):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "api_sequence": ["x.y"]}\n' + record + "\n",
                       encoding="utf-8")
        assert main(["ingest", "--dataset", str(bad)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"field {field!r}: contains a lone surrogate escape" in err
        assert "sample 'b" in err

    # the library's rules, reported as usage errors before any work
    @pytest.mark.parametrize("command,flags,message", [
        pytest.param("generate", ["--families", "0"],
                     "families and per_family must be positive", id="families-0"),
        pytest.param("generate", ["--per-family", "0"],
                     "families and per_family must be positive", id="per-family-0"),
        pytest.param("generate", ["--mutation-rate", "2"],
                     "mutation_rate must be in [0, 1]", id="mutation-rate-2"),
        pytest.param("crossval", ["--k", "1"], "k must be >= 2", id="k-1"),
        pytest.param("crossval", ["--k", "9"],
                     "family 'fam00' has 8 labeled samples, fewer than k=9",
                     id="k-above-a-family"),
    ])
    def test_out_of_range_value_is_usage_error(
            self, dataset_path, tmp_path, capsys, command, flags, message):
        out, cache = tmp_path / "out", tmp_path / "tensor.bin"
        argv = [command, *flags, "--out", str(out)]
        if command == "crossval":
            argv += ["--dataset", str(dataset_path), "--cache", str(cache)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"simnet {command}: error: {message}\n" in captured.err
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,data,message", [
        *(pytest.param(c, "empty", "dataset has no samples", id=f"{c}-empty")
          for c in ("similarity", "cluster", "optimize", "sweep", "crossval",
                    "export", "pipeline")),
        *(pytest.param(c, "unlabeled", "dataset has no labeled samples",
                       id=f"{c}-unlabeled")
          for c in ("cluster", "optimize", "sweep", "crossval", "pipeline")),
    ])
    def test_no_samples_or_labels_is_data_error_before_any_work(
            self, dataset_path, tmp_path, capsys, command, data, message):
        path = tmp_path / "data.jsonl"
        if data == "empty":
            path.write_text("", encoding="utf-8")
        else:
            ds = load_dataset(dataset_path)
            save_dataset(Dataset(tuple(replace(s, family=None) for s in ds)), path)
        argv = [command, "--dataset", str(path),
                "--cache", str(tmp_path / "tensor.bin")]
        if command in ("optimize", "sweep", "crossval", "pipeline"):
            argv += ["--iterations", "1"]
        if command in ("export", "pipeline"):
            argv += ["--out", str(tmp_path / "out" / "graph.json")]
        assert main(argv) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"simnet: data error: {message}\n")
        assert "Traceback" not in captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]

    def test_empty_ingest_and_unlabeled_similarity_and_export_succeed(
            self, dataset_path, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["ingest", "--dataset", str(empty)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["samples"] == 0
        unlabeled = tmp_path / "unlabeled.jsonl"
        save_dataset(Dataset(tuple(replace(s, family=None)
                                   for s in load_dataset(dataset_path))), unlabeled)
        assert main(["similarity", "--dataset", str(unlabeled)]) == EXIT_OK
        out = tmp_path / "graph.json"
        assert main(["export", "--dataset", str(unlabeled),
                     "--out", str(out)]) == EXIT_OK
        graph = json.loads(out.read_text(encoding="utf-8"))
        assert graph["meta"]["accuracy"] is None
        assert {n["predicted_label"] for n in graph["nodes"]} == {"Unlabeled"}

    def test_cache_without_a_cache_header_is_refused(self, dataset_path,
                                                     tmp_path, capsys):
        # --cache naming the dataset itself must not overwrite it
        data = tmp_path / "data.jsonl"
        data.write_bytes(dataset_path.read_bytes())
        assert main(["similarity", "--dataset", str(data),
                     "--cache", str(data)]) == EXIT_PIPELINE
        err = capsys.readouterr().err
        assert "simnet: error: corrupt tensor cache: header has no format_version" in err
        assert data.read_bytes() == dataset_path.read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]

    @pytest.mark.parametrize("line", [line for line, _ in CORRUPT_HEADERS.values()],
                             ids=CORRUPT_HEADERS.keys())
    @pytest.mark.parametrize("command", ["similarity", "pipeline"])
    def test_corrupt_cache_header_is_pipeline_error(self, dataset_path, tmp_path,
                                                    capsys, command, line):
        cache = tmp_path / "tensor.bin"
        cache.write_bytes(line + b"\n" + bytes(64))
        argv = [command, "--dataset", str(dataset_path), "--cache", str(cache)]
        if command == "pipeline":
            argv += ["--iterations", "1", "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_PIPELINE
        err = capsys.readouterr().err
        assert "simnet: error: corrupt tensor cache" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", OUT_OF_RANGE)
    @pytest.mark.parametrize("command", ["similarity", "pipeline"])
    def test_out_of_range_cache_value_is_pipeline_error(self, dataset_path,
                                                        tmp_path, capsys,
                                                        command, value):
        cache = tmp_path / "tensor.bin"
        assert main(["similarity", "--dataset", str(dataset_path),
                     "--cache", str(cache)]) == EXIT_OK
        patch_pair(cache, value)
        argv = [command, "--dataset", str(dataset_path), "--cache", str(cache)]
        if command == "pipeline":
            argv += ["--iterations", "1", "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_PIPELINE
        err = capsys.readouterr().err
        assert "simnet: error: corrupt tensor cache" in err
        assert "Traceback" not in err


class TestCommands:
    def test_generate_then_ingest(self, tmp_path, capsys):
        out = tmp_path / "gen.jsonl"
        assert main(["generate", "--families", "2", "--per-family", "3",
                     "--seed", "5", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["ingest", "--dataset", str(out)]) == EXIT_OK
        census = json.loads(capsys.readouterr().out)
        assert census["samples"] == 6
        assert census["labeled"] == 6
        assert len(census["families"]) == 2

    def test_generate_is_reproducible_on_disk(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            main(["generate", "--families", "2", "--per-family", "3",
                  "--seed", "5", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_similarity_reports_per_feature_stats(self, dataset_path, capsys):
        assert main(["similarity", "--dataset", str(dataset_path)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 24
        assert set(payload["features"]) == {"api", "permission", "activity",
                                            "file"}

    def test_similarity_cache_roundtrip(self, dataset_path, tmp_path, capsys):
        cache = tmp_path / "tensor.bin"
        main(["similarity", "--dataset", str(dataset_path),
              "--cache", str(cache)])
        first = capsys.readouterr().out
        assert cache.exists()
        main(["similarity", "--dataset", str(dataset_path),
              "--cache", str(cache)])
        assert capsys.readouterr().out == first

    def test_module_run_logs_as_simnet_cli(self, dataset_path, tmp_path):
        src = Path(simnet.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-m", "simnet.cli", "similarity",
                "--dataset", str(dataset_path), "--cache", str(tmp_path / "st.bin")]
        for _ in range(2):
            run = subprocess.run(argv, env=env, capture_output=True, text=True,
                                 check=True)
        assert "INFO simnet.cli: loaded tensor cache" in run.stderr
        assert "__main__" not in run.stderr

    def test_old_version_cache_is_rebuilt(self, dataset_path, tmp_path, capsys,
                                          caplog):
        main(["similarity", "--dataset", str(dataset_path)])
        fresh = capsys.readouterr().out
        ds = load_dataset(dataset_path)
        n = len(ds)
        header = {"format_version": 1, "n": n, "features": list(FEATURES),
                  "sample_order": list(ds.ids)}
        cache = tmp_path / "tensor.bin"
        # the n×n layout of format 1, with every entry zero
        cache.write_bytes(json.dumps(header).encode() + b"\n"
                          + np.zeros(4 * n * n).tobytes())
        with caplog.at_level("WARNING", logger="simnet.cli"):
            assert main(["similarity", "--dataset", str(dataset_path),
                         "--cache", str(cache)]) == EXIT_OK
        assert capsys.readouterr().out == fresh
        assert "unsupported tensor cache version: 1" in caplog.text
        assert "rebuilding" in caplog.text
        assert SimilarityTensor.load(cache).sample_order == ds.ids
        assert [p.name for p in tmp_path.iterdir()] == ["tensor.bin"]

    def test_cache_of_another_dataset_is_rebuilt(self, dataset_path, tmp_path,
                                                 capsys, caplog):
        other = tmp_path / "other.jsonl"
        save_dataset(Dataset(tuple(replace(s, id=f"other-{s.id}") for s in
                                   generate_planted(2, 5, 0.2, seed=4))), other)
        ds = load_dataset(other)
        main(["similarity", "--dataset", str(other)])
        fresh = capsys.readouterr().out
        cache = tmp_path / "tensor.bin"
        assert main(["similarity", "--dataset", str(dataset_path),
                     "--cache", str(cache)]) == EXIT_OK
        capsys.readouterr()
        with caplog.at_level("WARNING", logger="simnet.cli"):
            assert main(["similarity", "--dataset", str(other),
                         "--cache", str(cache)]) == EXIT_OK
        assert capsys.readouterr().out == fresh
        assert "does not match dataset; rebuilding" in caplog.text
        assert SimilarityTensor.load(cache).sample_order == ds.ids

    def test_cluster_percent_and_fraction_thresholds_agree(self, dataset_path,
                                                           tmp_path):
        d1, d2 = tmp_path / "p", tmp_path / "f"
        main(["cluster", "--dataset", str(dataset_path), "--threshold", "90",
              "--out", str(d1)])
        main(["cluster", "--dataset", str(dataset_path), "--threshold", "0.9",
              "--out", str(d2)])
        assert ((d1 / "report.json").read_bytes()
                == (d2 / "report.json").read_bytes())

    def test_cluster_prints_confusion_table(self, dataset_path, capsys):
        main(["cluster", "--dataset", str(dataset_path)])
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "Unlabeled" in out

    def test_cluster_report_payload_shape(self, dataset_path, tmp_path):
        main(["cluster", "--dataset", str(dataset_path),
              "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "report.json").read_text())
        assert set(payload) == {"accuracy", "threshold", "weights",
                                "modularity", "unlabeled_count",
                                "no_connection_ids", "families", "confusion",
                                "label_census"}
        assert payload["threshold"] == 0.9

    def test_optimize_trace_has_one_line_per_iteration(self, dataset_path,
                                                       tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        rc = main(["optimize", "--dataset", str(dataset_path),
                   "--iterations", "4", "--out", str(trace)])
        assert rc == EXIT_OK
        assert "best_error" in capsys.readouterr().out
        lines = trace.read_text().splitlines()
        assert len(lines) == 5
        rows = [json.loads(ln) for ln in lines]
        assert [r["iteration"] for r in rows] == [0, 1, 2, 3, 4]
        assert rows[0]["accepted"] is True
        assert all(set(r) == {"iteration", "weights", "error", "accepted"}
                   for r in rows)

    def test_optimize_stdout_same_with_and_without_out(self, dataset_path,
                                                       tmp_path, capsys,
                                                       monkeypatch):
        # at 90% this corpus is at zero error from iteration 0: without
        # --out the search stops there, with --out it scores every proposal
        real, calls = simnet.optimizer.cluster, []
        monkeypatch.setattr(simnet.optimizer, "cluster",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        argv = ["optimize", "--dataset", str(dataset_path), "--iterations", "6"]
        trace = tmp_path / "trace.jsonl"
        assert main([*argv, "--out", str(trace)]) == EXIT_OK
        full_out = capsys.readouterr().out
        assert len(calls) == 7
        assert len(trace.read_text().splitlines()) == 7
        assert full_out.startswith("best_error 0.0000")

        calls.clear()
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == full_out
        assert len(calls) == 1

    def test_sweep_outputs_every_point(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        rc = main(["sweep", "--dataset", str(dataset_path),
                   "--thresholds", "82,90", "--iterations", "2",
                   "--out", str(out)])
        assert rc == EXIT_OK
        stdout = capsys.readouterr().out.splitlines()
        assert sum(1 for ln in stdout if ln.startswith("threshold ")) == 2
        payload = json.loads(out.read_text())
        assert [p["threshold_percent"] for p in payload["points"]] == [82.0, 90.0]
        assert payload["best_threshold_percent"] in (82.0, 90.0)

    def test_sweep_range_spelling(self, dataset_path, capsys):
        rc = main(["sweep", "--dataset", str(dataset_path),
                   "--thresholds", "88-90", "--iterations", "2"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert sum(1 for ln in lines if ln.startswith("threshold ")) == 3

    def test_sweep_range_ends_snap_to_whole_percents(self):
        # 0.57 * 100 is 56.99999999999999; the range must still start at 57
        assert _threshold_list_arg("0.57-0.6") == [0.57, 0.58, 0.59, 0.6]
        assert _threshold_list_arg("80-95") == [p / 100.0 for p in range(80, 96)]

    def test_sweep_range_rejects_fractional_percent_end(self, dataset_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--dataset", str(dataset_path),
                  "--thresholds", "80.5-82", "--iterations", "2"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--dataset", str(dataset_path),
                  "--thresholds", "95-90", "--iterations", "2"])
        assert exc.value.code == 1

    def test_crossval_payload(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "cv.json"
        rc = main(["crossval", "--dataset", str(dataset_path), "--k", "2",
                   "--iterations", "2", "--out", str(out)])
        assert rc == EXIT_OK
        assert "mean prediction accuracy" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["k"] == 2
        assert len(payload["folds"]) == 2
        assert 0.0 <= payload["mean_prediction_accuracy"] <= 1.0

    def test_export_schema_and_dot_sibling(self, dataset_path, tmp_path):
        out = tmp_path / "graph.json"
        rc = main(["export", "--dataset", str(dataset_path),
                   "--threshold", "85", "--out", str(out)])
        assert rc == EXIT_OK
        payload = json.loads(out.read_text())
        assert set(payload) == {"nodes", "links", "meta"}
        assert len(payload["nodes"]) == 24
        assert all(set(n) == {"id", "family", "community", "predicted_label",
                              "degree"} for n in payload["nodes"])
        assert all(set(l) == {"source", "target", "weight"}
                   for l in payload["links"])
        assert set(payload["meta"]) == {"weights", "threshold", "modularity",
                                        "accuracy"}
        dot = (tmp_path / "graph.dot").read_text().splitlines()
        assert dot[0] == "graph simnet {"
        assert dot[-1] == "}"
        assert sum(1 for ln in dot if " -- " in ln) == len(payload["links"])


def _out_subcommands() -> list[str]:
    """Every subcommand that takes --out, read off the parser."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sorted(name for name, p in sub.choices.items()
                  if any("--out" in a.option_strings for a in p._actions))


# per --out subcommand: its other flags, its --out relative to a directory
# that does not exist yet, and the files it must leave there
OUT_CASES = {
    "generate": (["--families", "2", "--per-family", "3"], "data.jsonl",
                 ("data.jsonl",)),
    "cluster": ([], "run", ("run/report.json",)),
    "optimize": (["--iterations", "2"], "trace.jsonl", ("trace.jsonl",)),
    "sweep": (["--thresholds", "90", "--iterations", "2"], "sweep.json",
              ("sweep.json",)),
    "crossval": (["--k", "2", "--iterations", "2"], "cv.json", ("cv.json",)),
    "export": ([], "graph.json", ("graph.json", "graph.dot")),
    "pipeline": (["--iterations", "2"], "run",
                 ("run/report.json", "run/report.txt", "run/trace.jsonl",
                  "run/graph.json", "run/graph.dot")),
}


class TestOutDirectories:
    @pytest.mark.parametrize("command", _out_subcommands())
    def test_out_under_a_new_directory_is_created(self, command, dataset_path,
                                                  tmp_path):
        assert command in OUT_CASES, f"add {command} to OUT_CASES"
        flags, out, files = OUT_CASES[command]
        nested = tmp_path / "new" / "deeper"
        dataset = [] if command == "generate" else ["--dataset", str(dataset_path)]
        assert main([command, *dataset, *flags,
                     "--out", str(nested / out)]) == EXIT_OK
        for name in files:
            assert (nested / name).is_file(), name

    @pytest.mark.parametrize("command,flags", [
        ("similarity", []),
        ("pipeline", ["--iterations", "2", "--out", "run"]),
    ])
    def test_cache_under_a_new_directory_is_created(self, command, flags,
                                                    dataset_path, tmp_path,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = tmp_path / "new" / "deeper" / "st.bin"
        assert main([command, "--dataset", str(dataset_path), *flags,
                     "--cache", str(cache)]) == EXIT_OK
        assert cache.is_file()
        assert sorted(p.name for p in cache.parent.iterdir()) == ["st.bin"]


class TestPipeline:
    def test_artifacts_written_and_summary_printed(self, dataset_path,
                                                   tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["pipeline", "--dataset", str(dataset_path),
                   "--iterations", "3", "--out", str(out)])
        assert rc == EXIT_OK
        stdout = capsys.readouterr().out
        assert "accuracy" in stdout and "artifacts" in stdout
        for name in ("report.json", "report.txt", "trace.jsonl",
                     "graph.json", "graph.dot"):
            assert (out / name).exists(), name

    def test_reruns_are_byte_identical(self, dataset_path, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            main(["pipeline", "--dataset", str(dataset_path),
                  "--iterations", "3", "--out", str(out)])
        for name in ("report.json", "report.txt", "trace.jsonl",
                     "graph.json", "graph.dot"):
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes()), name

    def test_missing_dataset_maps_to_data_exit(self, tmp_path):
        rc = main(["pipeline", "--dataset", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "run")])
        assert rc == EXIT_DATA


class TestClassifySeed:
    def test_cluster_and_export_score_at_the_classify_seed(
            self, seed_sensitive_path, tmp_path):
        args = ["--dataset", str(seed_sensitive_path), "--weights", "1,0,0,0",
                "--threshold", "85", "--seed", "0"]
        assert main(["cluster", *args, "--out", str(tmp_path)]) == EXIT_OK
        graph = tmp_path / "graph.json"
        assert main(["export", *args, "--out", str(graph)]) == EXIT_OK
        ds = load_dataset(seed_sensitive_path)
        # the literal 5 pins the classify salt
        want = classify(build_similarity_tensor(ds), ds,
                        WeightVector(1.0, 0.0, 0.0, 0.0), 0.85,
                        derive_seed(0, 5))
        assert want.accuracy == 0.675
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["accuracy"] == want.accuracy
        assert report["confusion"] == want.confusion_dict()
        assert json.loads(graph.read_text())["meta"]["accuracy"] == want.accuracy

    def test_cluster_and_export_reproduce_pipeline_artifacts(
            self, seed_sensitive_path, tmp_path):
        common = ["--dataset", str(seed_sensitive_path), "--threshold", "85",
                  "--seed", "4"]
        run = tmp_path / "run"
        # a full-step search lands on a seed-sensitive api-only graph
        assert main(["pipeline", *common, "--iterations", "10", "--lr", "1.0",
                     "--out", str(run)]) == EXIT_OK
        learned = json.loads((run / "report.json").read_text())["weights"]
        weights = ",".join(repr(learned[name]) for name in FEATURES)
        assert main(["cluster", *common, "--weights", weights,
                     "--out", str(tmp_path / "cluster")]) == EXIT_OK
        assert main(["export", *common, "--weights", weights,
                     "--out", str(tmp_path / "graph.json")]) == EXIT_OK
        assert ((tmp_path / "cluster" / "report.json").read_bytes()
                == (run / "report.json").read_bytes())
        for name in ("graph.json", "graph.dot"):
            assert ((tmp_path / name).read_bytes()
                    == (run / name).read_bytes()), name


# strings that JSON and DOT escape differently: quote, backslash, non-ASCII,
# astral, control characters, tab and newline
_AWKWARD = st.text(alphabet=st.sampled_from(['"', "\\", "\u00e9", "\U0001F600",
                                             "\x01", "\t", "\n", "a"]),
                   min_size=1, max_size=4)
_NAMES = _AWKWARD | st.text(min_size=1, max_size=4)


@st.composite
def exported_graphs(draw):
    """(graph, labeled partition, dataset, accuracy) on up to six samples."""
    n = draw(st.integers(1, 6))
    ids = draw(st.lists(_NAMES, min_size=n, max_size=n, unique=True))
    families = draw(st.lists(st.none() | _NAMES, min_size=n, max_size=n))
    ds = Dataset(tuple(Sample(i, f, (), frozenset(), frozenset(), frozenset())
                       for i, f in zip(ids, families)))
    threshold = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = []
    if pairs and threshold < 1.0:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
        weight = st.floats(threshold, 1.0, exclude_min=True)
        edges = [(i, j, draw(weight)) for i, j in chosen]
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4)))
    g = SimilarityGraph.from_edges(ids, edges, threshold,
                                   WeightVector.from_array(raw / raw.sum()))
    p = label_communities(louvain(g, draw(st.integers(0, 3))), ds)
    accuracy = draw(st.none() | st.floats(0.0, 1.0))
    return g, p, ds, accuracy


def _assert_export_matches_oracle(g, p, ds, accuracy, out: Path) -> None:
    cmd_export_graph(g, p, ds, out / "graph.json", accuracy=accuracy)
    want_json, want_dot = export_texts(g, p, ds, accuracy)
    assert (out / "graph.json").read_bytes() == want_json.encode("utf-8")
    assert (out / "graph.dot").read_bytes() == want_dot.encode("utf-8")


class TestExportBytes:
    """graph.json and graph.dot are the bytes of the dict-and-json.dumps writer."""

    @settings(max_examples=150, deadline=None)
    @given(exported_graphs())
    def test_awkward_strings_match_the_oracle(self, case):
        with tempfile.TemporaryDirectory() as d:
            _assert_export_matches_oracle(*case, Path(d))

    # 0.0 links every pair; at 1.0 this graph is edgeless
    @pytest.mark.parametrize("threshold", [0.0, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("accuracy", [None, 0.75])
    def test_planted_graphs_match_the_oracle(self, small_ds, small_tensor,
                                             threshold, accuracy, tmp_path):
        g, p = cluster(small_tensor, small_ds, WeightVector(0.4, 0.3, 0.2, 0.1),
                       threshold, seed=1)
        assert (g.edge_count == 0) == (threshold == 1.0)
        _assert_export_matches_oracle(g, p, small_ds, accuracy, tmp_path)


class TestPlantedExperiment:
    """The README recipe and `sweep`'s error split on small planted corpora."""

    def test_readme_recipe_reproduces_the_planted_numbers(self, tmp_path,
                                                           capsys):
        data, cache = tmp_path / "corpus.jsonl", tmp_path / "t.bin"
        run = tmp_path / "run"
        assert main(["generate", "--families", "3", "--per-family", "6",
                     "--seed", "7", "--out", str(data)]) == EXIT_OK
        common = ["--dataset", str(data), "--iterations", "5", "--cache", str(cache)]
        capsys.readouterr()
        assert main(["pipeline", *common, "--out", str(run)]) == EXIT_OK
        assert capsys.readouterr().out == (
            "accuracy   0.6667\n"
            "weights    api=0.2632  permission=0.2632  activity=0.2632  file=0.2105\n"
            "modularity 0.7187\n"
            f"artifacts  {run}\n")
        assert (run / "report.txt").read_text().splitlines()[:6] == [
            "accuracy     0.6667",
            "modularity   0.7187",
            "threshold    0.90",
            "unlabeled    6",
            "isolated     6",
            "weights      api=0.2632  permission=0.2632  activity=0.2632  file=0.2105",
        ]
        rows = [json.loads(ln) for ln in (run / "trace.jsonl").read_text().splitlines()]
        assert len(rows) == 6
        assert f"{rows[0]['error']:.4f}" == "0.3889"  # the equal-weight baseline
        assert sum(r["accepted"] for r in rows[1:]) == 1
        assert main(["crossval", *common, "--k", "2"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "fold 0  classification 0.5556  prediction 0.3333\n"
            "fold 1  classification 0.2222  prediction 0.3333\n"
            "mean prediction accuracy 0.3333\n")

    def test_sweep_stdout_is_pinned(self, tmp_path, capsys):
        # 5x12 at mutation 0.3: 11 samples have no edge even at 0.70, and
        # a singleton community is Unlabeled, so every error is Unlabeled
        data = tmp_path / "corpus.jsonl"
        save_dataset(generate_planted(5, 12, 0.3, 7), data)
        assert main(["sweep", "--dataset", str(data), "--thresholds", "70-95",
                     "--iterations", "5"]) == EXIT_OK
        rows = [(70, "0.8167", 11), (71, "0.7833", 13), (72, "0.6667", 20),
                (73, "0.5333", 28), (74, "0.4167", 35), (75, "0.3333", 40),
                (76, "0.3000", 42), (77, "0.2500", 45), (78, "0.2000", 48),
                (79, "0.1333", 52), (80, "0.0667", 56), (81, "0.0333", 58)]
        rows += [(pct, "0.0000", 60) for pct in range(82, 96)]
        assert capsys.readouterr().out == "".join(
            f"threshold {pct:5.1f}  accuracy {acc}  unlabeled {n}  isolated {n}\n"
            for pct, acc, n in rows) + "best threshold 70.0\n"

    def test_sweep_rows_are_cluster_reports(self, seed_sensitive_path, tmp_path,
                                            capsys):
        common = ["--dataset", str(seed_sensitive_path), "--seed", "3"]
        sweep = tmp_path / "sweep.json"
        assert main(["sweep", *common, "--thresholds", "72-74",
                     "--iterations", "5", "--out", str(sweep)]) == EXIT_OK
        printed = [ln.split() for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("threshold ")]
        points = json.loads(sweep.read_text())["points"]
        assert len(printed) == len(points) == 3
        for row, pt in zip(printed, points):
            weights = ",".join(repr(pt["weights"][name]) for name in FEATURES)
            out = tmp_path / f"cluster-{pt['threshold_percent']}"
            assert main(["cluster", *common, "--weights", weights,
                         "--threshold", str(pt["threshold_percent"]),
                         "--out", str(out)]) == EXIT_OK
            report = json.loads((out / "report.json").read_text())
            assert row[4:] == ["unlabeled", str(report["unlabeled_count"]),
                               "isolated", str(len(report["no_connection_ids"]))]
        assert int(printed[0][5]) > 0


def _fail_after_first(items):
    """Yield the first item, then fail as a full disk would."""
    yield items[0]
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("writer", ["artifact", "dataset", "tensor"])
def test_a_write_failing_midway_keeps_the_previous_file(writer, small_ds, small_tensor,
                                                        tmp_path, monkeypatch):
    path = tmp_path / "out"
    path.write_bytes(b"previous\n")
    with pytest.raises((OSError, UnicodeEncodeError)):
        if writer == "artifact":   # every --out file goes through _write
            _write(path, "graph\n" * 10_000 + "\ud800")
        elif writer == "dataset":
            save_dataset(_fail_after_first(list(small_ds)), path)
        else:
            vectors = small_tensor.vectors()
            monkeypatch.setattr(SimilarityTensor, "vectors",
                                lambda self: _fail_after_first(vectors))
            small_tensor.save(path)
    assert path.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


# ---------------------------------------------------------------------------
# byte-level mutations of a valid corpus
# ---------------------------------------------------------------------------

def _corpus_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "corpus.jsonl"
        save_dataset(generate_planted(3, 6, 0.10, seed=5), path)
        return path.read_bytes()


_CORPUS = _corpus_bytes()   # a valid 3x6 corpus, 18 lines
_FIELDS = ("id", "family", "api_sequence", "permissions", "activity_names",
           "file_names", "extra")
_WRONG_VALUES = (None, 0, -1.5, True, "", "x", [], [1, 2], ["a", None], {}, {"a": 1})
_ESCAPES = (b"\\ud800", b"\\udfff", b"\\ud83d\\ude00", b"\\u0000", b"\\\\", b'\\"',
            b"\\n", b"\\x", b"\\u12", "é".encode(), b"\xff", b"\xed\xa0\x80")


@st.composite
def mutated_corpora(draw):
    """The 3x6 corpus after one to three truncations, byte flips, wrong-typed
    fields, deeply nested values, escapes or duplicated lines."""
    data = bytearray(_CORPUS)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["truncate", "flip", "wrong-type", "nest", "escape", "duplicate"]))
        lines = data.splitlines(keepends=True) or [b""]
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "truncate":
            del data[draw(st.integers(0, len(data))):]
        elif kind == "flip" and data:
            data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        elif kind in ("wrong-type", "nest"):
            try:
                rec = json.loads(lines[i])
            except (ValueError, RecursionError):   # an earlier mutation broke it
                continue
            if not isinstance(rec, dict):
                continue
            field = draw(st.sampled_from(_FIELDS))
            if kind == "wrong-type":
                rec[field] = draw(st.sampled_from(_WRONG_VALUES))
                lines[i] = json.dumps(rec).encode() + b"\n"
            else:
                depth = draw(st.sampled_from([2, 900, 1100, 100_000]))
                rec[field] = "NEST"
                lines[i] = json.dumps(rec).encode().replace(
                    b'"NEST"', b"[" * depth + b"]" * depth) + b"\n"
            data = bytearray(b"".join(lines))
        elif kind == "escape":
            quotes = [j for j, c in enumerate(data) if c == ord('"')]
            if quotes:
                j = draw(st.sampled_from(quotes)) + 1
                data[j:j] = draw(st.sampled_from(_ESCAPES))
        elif kind == "duplicate":
            data += lines[i]
    return bytes(data)


def _run(argv):
    """main(argv) in-process, with its stdout captured; returns (rc, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


@given(data=mutated_corpora(), skip=st.booleans())
@settings(max_examples=40, deadline=None)
def test_a_mutated_corpus_is_refused_or_fully_processed(data, skip):
    """ingest exits 0 or 2, never with a traceback; a corpus it accepts with
    any sample in it also goes through similarity and export."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "corpus.jsonl"
        path.write_bytes(data)
        common = ["--dataset", str(path)] + (["--skip-invalid"] if skip else [])
        rc, out = _run(["ingest", *common])
        assert rc in (EXIT_OK, EXIT_DATA)
        if rc == EXIT_OK and json.loads(out)["samples"]:
            assert _run(["similarity", *common])[0] == EXIT_OK
            graph = str(Path(d) / "graph.json")
            assert _run(["export", *common, "--out", graph])[0] == EXIT_OK

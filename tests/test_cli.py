import argparse
import json

import numpy as np
import pytest

import simnet.optimizer
from simnet import (FEATURES, OptimizerConfig, SimilarityTensor, WeightVector,
                    build_similarity_tensor, classify, derive_seed,
                    generate_planted, load_dataset, save_dataset)
from simnet.cli import (EXIT_DATA, EXIT_OK, EXIT_PIPELINE, EXIT_USAGE,
                        _threshold_list_arg, build_parser, main, parse_args,
                        parse_threshold, parse_weights)
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

    def test_impossible_stratification_is_pipeline_error(self, dataset_path,
                                                         capsys):
        rc = main(["crossval", "--dataset", str(dataset_path), "--k", "9",
                   "--iterations", "2"])
        assert rc == EXIT_PIPELINE
        assert "fewer than k" in capsys.readouterr().err

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

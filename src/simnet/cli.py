"""The command-line front door, and the only runnable one: generate/ingest
data, build tensors, cluster, optimize, sweep, cross-validate, and export
viewer-ready graph files.

Exit codes: 0 success, 1 usage error, 2 data error, 3 pipeline error.
A malformed or out-of-range option value, search options, ``crossval --k``
and ``generate``'s corpus shape included, is a usage error: it fails before
any work with ``simnet <command>: error: ...``.
Every exit-3 error prints ``simnet: error: <cause>``.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

from .community import Partition, cluster
from .dataset import Dataset, DatasetError, generate_planted, load_dataset, save_dataset
from .evaluation import (CLASSIFY_SALT, UNLABELED, ClusteringReport,
                         kfold_crossval, report_from_partition, stratified_folds)
from .netgraph import SimilarityGraph
from .optimizer import (OptimizerConfig, OptimizerTrace, derive_seed,
                        optimize_weights, threshold_sweep)
from .similarity import (FEATURES, CacheVersionError, SimilarityTensor,
                         WeightVector, build_similarity_tensor)

log = logging.getLogger("simnet.cli")   # not __main__ under python -m simnet.cli

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PIPELINE = 3

_DEFAULTS = OptimizerConfig()  # the search options' defaults


def parse_threshold(text: str) -> float:
    """Threshold in percent.  Values above 1 are percent (90); values up to
    1 are unit fractions (0.9) and get scaled."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"threshold must be finite: {text}")
    if value < 0.0:
        raise ValueError(f"threshold cannot be negative: {text}")
    percent = value * 100.0 if value <= 1.0 else value
    if percent > 100.0:
        raise ValueError(f"threshold out of range: {text}")
    return percent


def parse_weights(text: str) -> WeightVector:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError("expected four comma-separated weights "
                         "(api,permission,activity,file)")
    return WeightVector(*parts)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract reserves 2 for
    # data errors, so route usage problems to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _out_file(path) -> Path:
    """An output file's path, with its parent directory created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write(path, text: str) -> None:
    """Write one text output file, creating its directory."""
    _out_file(path).write_text(text, encoding="utf-8")


def _json_dump(obj, path) -> None:
    _write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load(args, need: str = "") -> Dataset:
    """Load --dataset; ``need`` "samples" (to build a tensor) or "labels" is checked here."""
    path = Path(args.dataset)
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")
    ds = load_dataset(path, skip_invalid=args.skip_invalid)
    if need and not len(ds):
        raise DatasetError("dataset has no samples")
    if need == "labels" and not ds.labeled_ids:
        raise DatasetError("dataset has no labeled samples")
    return ds


def _tensor(ds: Dataset, cache: str | None) -> SimilarityTensor:
    if cache:
        cache_path = Path(cache)
        if cache_path.exists():
            try:
                t = SimilarityTensor.load(cache_path)
            except CacheVersionError as e:
                log.warning("tensor cache %s: %s; rebuilding", cache_path, e)
            else:
                if t.sample_order == ds.ids:
                    log.info("loaded tensor cache %s", cache_path)
                    return t
                log.warning("tensor cache %s does not match dataset; rebuilding",
                            cache_path)
        t = build_similarity_tensor(ds)
        t.save(_out_file(cache_path))
        return t
    return build_similarity_tensor(ds)


def _report_payload(report: ClusteringReport, ds: Dataset) -> dict:
    return {
        "accuracy": report.accuracy,
        "threshold": report.threshold,
        "weights": report.weights.as_dict(),
        "modularity": report.modularity,
        "unlabeled_count": report.unlabeled_count,
        "no_connection_ids": list(report.no_connection_ids),
        "families": list(report.families),
        "confusion": report.confusion_dict(),
        "label_census": ds.label_census(),
    }


def _report_text(report: ClusteringReport) -> str:
    lines = [
        f"accuracy     {report.accuracy:.4f}",
        f"modularity   {report.modularity:.4f}",
        f"threshold    {report.threshold:.2f}",
        f"unlabeled    {report.unlabeled_count}",
        f"isolated     {len(report.no_connection_ids)}",
        "weights      " + "  ".join(
            f"{name}={val:.4f}" for name, val in report.weights.as_dict().items()),
        "",
    ]
    width = max(len(f) for f in report.columns) + 2
    header = " " * width + "".join(c.rjust(width) for c in report.columns)
    lines.append(header)
    for i, fam in enumerate(report.families):
        row = fam.ljust(width) + "".join(
            str(int(v)).rjust(width) for v in report.confusion[i])
        lines.append(row)
    return "\n".join(lines) + "\n"


def _classify_cluster(t, ds, w, threshold, seed):
    """cluster/export/pipeline's clustering: one Louvain seed for all three."""
    return cluster(t, ds, w, threshold, derive_seed(seed, CLASSIFY_SALT))


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def cmd_export_graph(g: SimilarityGraph, p: Partition, ds: Dataset,
                     path, accuracy: float | None = None) -> None:
    """Write the graph as force-layout-ready JSON plus a DOT sibling file.

    JSON: nodes [{id, family, community, predicted_label, degree}],
    links [{source, target, weight}], meta {weights, threshold,
    modularity, accuracy}.
    """
    path = Path(path)
    deg = g.degrees()
    labels = p.community_labels
    nodes = []
    for i, nid in enumerate(g.node_ids):
        lab = labels[int(p.membership[i])]
        nodes.append({
            "id": nid,
            "family": ds[nid].family,
            "community": int(p.membership[i]),
            "predicted_label": lab if lab is not None else UNLABELED,
            "degree": int(deg[i]),
        })
    links = [{"source": g.node_ids[i], "target": g.node_ids[j], "weight": w}
             for i, j, w in g.edges()]
    meta = {
        "weights": g.weights_used.as_dict(),
        "threshold": g.threshold,
        "modularity": p.modularity,
        "accuracy": accuracy,
    }
    _json_dump({"nodes": nodes, "links": links, "meta": meta}, path)

    out = ["graph simnet {"]
    for node in nodes:
        out.append(
            '  "{id}" [family="{family}", community={community}, '
            'predicted="{predicted}", degree={degree}];'.format(
                id=_dot_escape(node["id"]),
                family=_dot_escape(node["family"] or ""),
                community=node["community"],
                predicted=_dot_escape(node["predicted_label"]),
                degree=node["degree"]))
    for link in links:
        out.append('  "{s}" -- "{t}" [weight={w:.6f}];'.format(
            s=_dot_escape(link["source"]), t=_dot_escape(link["target"]),
            w=link["weight"]))
    out.append("}")
    _write(path.with_suffix(".dot"), "\n".join(out) + "\n")


def _trace_lines(trace: OptimizerTrace) -> str:
    lines = []
    for e in trace.history:
        lines.append(json.dumps({
            "iteration": e.iteration,
            "weights": list(e.weights.as_tuple()),
            "error": e.error,
            "accepted": e.accepted,
        }, sort_keys=True))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    try:
        ds = generate_planted(args.families, args.per_family, args.mutation_rate,
                              args.seed)
    except ValueError as e:
        args.parser.error(str(e))
    save_dataset(ds, _out_file(args.out))
    print(f"wrote {len(ds)} samples ({args.families} families) to {args.out}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    ds = _load(args)
    payload = {
        "samples": len(ds),
        "labeled": len(ds.labeled_ids),
        "families": ds.label_census(),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_similarity(args) -> int:
    ds = _load(args, need="samples")
    t = _tensor(ds, args.cache)
    stats = {name: {"mean": round(float(m.mean()), 6),
                    "min": round(float(m.min()), 6)}
             for name, m in zip(FEATURES, t.matrices())}
    print(json.dumps({"n": t.n, "features": stats}, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_cluster(args) -> int:
    ds = _load(args, need="labels")
    t = _tensor(ds, args.cache)
    g, p = _classify_cluster(t, ds, args.weights, args.threshold, args.seed)
    report = report_from_partition(g, p, ds)
    print(_report_text(report), end="")
    if args.out:
        _json_dump(_report_payload(report, ds), Path(args.out) / "report.json")
    return EXIT_OK


def cmd_optimize(args) -> int:
    ds = _load(args, need="labels")
    t = _tensor(ds, args.cache)
    # without --out only the result is printed, so the search may stop at zero error
    trace = optimize_weights(t, ds, args.cfg, stop_at_zero=not args.out)
    print(f"best_error {trace.best_error:.4f}  accuracy {1 - trace.best_error:.4f}")
    print("weights " + "  ".join(
        f"{k}={v:.4f}" for k, v in trace.best_weights.as_dict().items()))
    if args.out:
        _write(args.out, _trace_lines(trace))
    return EXIT_OK


def cmd_sweep(args) -> int:
    ds = _load(args, need="labels")
    t = _tensor(ds, args.cache)
    report = threshold_sweep(t, ds, args.cfg, args.thresholds)
    for pt in report.points:
        # cluster's report at this point's weights, threshold and seed
        rescored = report_from_partition(*_classify_cluster(
            t, ds, pt.best_weights, pt.threshold, args.cfg.seed), ds)
        print(f"threshold {pt.threshold * 100:5.1f}  accuracy {pt.accuracy:.4f}"
              f"  unlabeled {rescored.unlabeled_count}"
              f"  isolated {len(rescored.no_connection_ids)}")
    print(f"best threshold {report.best_threshold * 100:.1f}")
    if args.out:
        payload = {
            "best_threshold_percent": report.best_threshold * 100.0,
            "points": [{
                "threshold_percent": pt.threshold * 100.0,
                "accuracy": pt.accuracy,
                "weights": pt.best_weights.as_dict(),
            } for pt in report.points],
        }
        _json_dump(payload, args.out)
    return EXIT_OK


def cmd_crossval(args) -> int:
    ds = _load(args, need="labels")
    try:
        stratified_folds(ds, args.k, args.cfg.seed)  # checks --k before the tensor build
    except ValueError as e:
        args.parser.error(str(e))
    t = _tensor(ds, args.cache)
    report = kfold_crossval(ds, args.k, args.cfg, tensor=t)
    for fr in report.per_fold:
        print(f"fold {fr.fold}  classification {fr.classification_accuracy:.4f}"
              f"  prediction {fr.prediction_accuracy:.4f}")
    print(f"mean prediction accuracy {report.mean_prediction_accuracy:.4f}")
    if args.out:
        payload = {
            "k": report.k,
            "mean_prediction_accuracy": report.mean_prediction_accuracy,
            "folds": [{
                "fold": fr.fold,
                "classification_accuracy": fr.classification_accuracy,
                "prediction_accuracy": fr.prediction_accuracy,
                "weights": fr.weights.as_dict(),
            } for fr in report.per_fold],
        }
        _json_dump(payload, args.out)
    return EXIT_OK


def cmd_export(args) -> int:
    ds = _load(args, need="samples")
    t = _tensor(ds, args.cache)
    g, p = _classify_cluster(t, ds, args.weights, args.threshold, args.seed)
    accuracy = None
    if ds.labeled_ids:
        accuracy = report_from_partition(g, p, ds).accuracy
    cmd_export_graph(g, p, ds, args.out, accuracy=accuracy)
    print(f"wrote {args.out} and {Path(args.out).with_suffix('.dot')}")
    return EXIT_OK


def run_pipeline(args) -> int:
    """ingest → tensor → optimize → classify → export, into the --out directory."""
    cfg = args.cfg
    ds = _load(args, need="labels")
    t = _tensor(ds, args.cache)
    trace = optimize_weights(t, ds, cfg)
    g, p = _classify_cluster(t, ds, trace.best_weights, cfg.threshold, cfg.seed)
    report = report_from_partition(g, p, ds)

    out = Path(args.out)
    _json_dump(_report_payload(report, ds), out / "report.json")
    _write(out / "report.txt", _report_text(report))
    _write(out / "trace.jsonl", _trace_lines(trace))
    cmd_export_graph(g, p, ds, out / "graph.json", accuracy=report.accuracy)

    print(f"accuracy   {report.accuracy:.4f}")
    print("weights    " + "  ".join(
        f"{k}={v:.4f}" for k, v in trace.best_weights.as_dict().items()))
    print(f"modularity {report.modularity:.4f}")
    print(f"artifacts  {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _threshold_arg(text: str) -> float:
    """A threshold as a unit fraction: '90' and '0.9' both give 0.9."""
    try:
        return parse_threshold(text) / 100.0
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def _weights_arg(text: str) -> WeightVector:
    try:
        return parse_weights(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def _whole_percent(text: str) -> int:
    """A threshold range end: a whole percent, up to float rounding
    (0.57 is 56.99999999999999 percent)."""
    percent = parse_threshold(text)
    whole = round(percent)
    if abs(percent - whole) > 1e-9:
        raise ValueError(f"threshold range ends must be whole percents: {text}")
    return whole


def _threshold_list_arg(text: str) -> list[float]:
    """'80-95' (whole percents) or '80,85,90' as unit fractions."""
    try:
        if "-" in text and "," not in text:
            lo, hi = map(_whole_percent, text.split("-", 1))
            if hi < lo:
                raise ValueError(f"empty threshold range: {text}")
            return [p / 100.0 for p in range(lo, hi + 1)]
        return [parse_threshold(p) / 100.0 for p in text.split(",")]
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def _graph_out_arg(text: str) -> str:
    """export's --out: the DOT file goes beside it, so it cannot be .dot."""
    if Path(text).suffix == ".dot":
        raise argparse.ArgumentTypeError(f"{text}: the DOT file would overwrite it")
    return text


def _add_common(sub, cache: bool = True):
    sub.add_argument("--dataset", required=True, help="JSONL dataset path")
    sub.add_argument("--skip-invalid", action="store_true",
                     help="drop malformed records instead of failing")
    if cache:
        sub.add_argument("--cache", default=None,
                         help="tensor cache file (created if absent)")


def _add_cfg_options(sub, threshold: bool = True, search: bool = True,
                     iterations: int = _DEFAULTS.iterations):
    """OptimizerConfig's options with its defaults: --threshold (unless the
    command sweeps thresholds), --seed, and for a weight search --iterations
    and --lr, from which parse_args() builds args.cfg and reports a bad value
    through the command's parser."""
    if threshold:
        sub.add_argument("--threshold", type=_threshold_arg,
                         default=_DEFAULTS.threshold,
                         help="percent (90) or fraction (0.9)")
    if search:
        sub.add_argument("--iterations", type=int, default=iterations)
        sub.add_argument("--lr", type=float, default=_DEFAULTS.learning_rate)
    sub.add_argument("--seed", type=int, default=_DEFAULTS.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="simnet",
                     description="Similarity-network family classification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a planted-family dataset")
    p.add_argument("--families", type=int, default=8)
    p.add_argument("--per-family", type=int, default=50)
    p.add_argument("--mutation-rate", type=float, default=0.10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ingest", help="validate a dataset and print its census")
    _add_common(p, cache=False)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("similarity", help="build (and cache) the similarity tensor")
    _add_common(p)
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("cluster", help="cluster at fixed weights and report")
    _add_common(p)
    _add_cfg_options(p, search=False)
    p.add_argument("--weights", type=_weights_arg,
                   default=WeightVector.equal(),
                   help="api,permission,activity,file")
    p.add_argument("--out", default=None, help="directory for report.json")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("optimize", help="learn fusion weights")
    _add_common(p)
    _add_cfg_options(p)
    p.add_argument("--out", default=None, help="trace JSONL path")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sweep", help="optimize independently per threshold")
    _add_common(p)
    p.add_argument("--thresholds", type=_threshold_list_arg,
                   default="80-95",
                   help="range '80-95' or list '80,85,90' (default 80-95)")
    _add_cfg_options(p, threshold=False, iterations=200)
    p.add_argument("--out", default=None, help="sweep report JSON path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("crossval", help="stratified K-fold prediction accuracy")
    _add_common(p)
    _add_cfg_options(p)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--out", default=None, help="crossval report JSON path")
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("export", help="write force-layout JSON + DOT files")
    _add_common(p)
    _add_cfg_options(p, search=False)
    p.add_argument("--weights", type=_weights_arg,
                   default=WeightVector.equal())
    p.add_argument("--out", type=_graph_out_arg, required=True,
                   help="graph JSON path; the DOT file is written beside it")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("pipeline",
                       help="ingest, optimize, classify, export in one run")
    _add_common(p)
    _add_cfg_options(p)
    p.add_argument("--out", required=True, help="artifact directory")
    p.set_defaults(func=run_pipeline)

    for p in sub.choices.values():
        p.set_defaults(parser=p)  # a command's usage errors go through its own parser
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse argv; a search command's options become one checked args.cfg."""
    args = build_parser().parse_args(argv)
    if hasattr(args, "iterations"):
        try:
            args.cfg = OptimizerConfig(
                iterations=args.iterations, learning_rate=args.lr,
                threshold=getattr(args, "threshold", _DEFAULTS.threshold),
                seed=args.seed)
        except ValueError as e:
            args.parser.error(str(e))
    return args


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    args = parse_args(argv)
    try:
        return args.func(args)
    except DatasetError as e:
        print(f"simnet: data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as e:
        print(f"simnet: error: {e}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())

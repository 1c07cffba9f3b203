"""Spans around simnet's public functions, taken from outside the program.

The tracer replaces each target function at every module attribute that
refers to it (``simnet.optimizer.louvain``, ``simnet.evaluation.louvain``,
``simnet.cli.louvain``, ``simnet.louvain`` ...), so calls between modules
are seen, and restores every name on exit.  Spans stay in memory as
``[name, start, end, parent, run_id, attrs]`` and are written once, at the
end.  Counts come from the wrappers' view of arguments and return values.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time

# layer -> public callables; "Class.method" wraps a method on the class
TARGETS = {
    "dataset": ("load_dataset",),
    "similarity": ("build_similarity_tensor", "fused_matrix",
                   "SimilarityTensor.subset", "SimilarityTensor.save",
                   "SimilarityTensor.load"),
    "netgraph": ("build_graph",),
    "community": ("louvain", "label_communities"),
    "optimizer": ("clustering_error", "optimize_weights", "threshold_sweep"),
    "evaluation": ("kfold_crossval", "report_from_partition"),
    "cli": ("main", "run_pipeline", "cmd_export_graph"),
}


def _edges(args, kwargs, out):
    return {"edges": out.edge_count}


def _louvain(args, kwargs, out):
    return {"levels": out.level_count, "communities": out.n_communities}


def _search(args, kwargs, out):
    proposals = out.history[1:]
    return {"iterations": len(proposals),
            "accepted": sum(1 for e in proposals if e.accepted)}


def _cache_file(args, kwargs, out):
    path = kwargs["path"] if "path" in kwargs else args[-1]
    return {"bytes": os.path.getsize(path)}


ATTRS = {
    "netgraph.build_graph": _edges,
    "community.louvain": _louvain,
    "optimizer.optimize_weights": _search,
    "similarity.SimilarityTensor.save": _cache_file,
    "similarity.SimilarityTensor.load": _cache_file,
}


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, attrs = self.spans, self._stack, ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1, self.run_id, None])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if attrs is not None:
                spans[idx][5] = attrs(args, kwargs, out)
            return out
        return traced

    def __enter__(self):
        modules = [m for k, m in list(sys.modules.items())
                   if k == "simnet" or k.startswith("simnet.")]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"simnet.{layer}")
            for qual in names:
                span = f"{layer}.{qual}"
                owner, _, meth = qual.rpartition(".")
                if owner:
                    cls = getattr(home, owner, None)
                    raw = cls.__dict__.get(meth) if cls is not None else None
                    if raw is None:
                        self.missing.append(span)
                        continue
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(span, raw.__func__))
                    else:
                        new = self._wrap(span, raw)
                    self._restore.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                fn = getattr(home, qual, None)
                if fn is None:
                    self.missing.append(span)
                    continue
                new = self._wrap(span, fn)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._restore.append((mod, attr, fn))
                            setattr(mod, attr, new)
        return self

    def __exit__(self, *exc):
        for obj, attr, val in reversed(self._restore):
            setattr(obj, attr, val)
        self._restore.clear()
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run_id": run_id,
                                     "attrs": attrs}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def summarize(spans, runs: int):
    """Per-layer metrics, tail details and per-run exact counts.

    ``runs`` traced runs ran with run ids 1..runs.  Returns
    (metrics, details, counts_by_run).
    """
    dur: dict[str, list[float]] = {}
    self_ms: dict[str, list[float]] = {}
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, _, _, _) in enumerate(spans):
        dur.setdefault(name, []).append(1000.0 * (end - start))
        self_ms.setdefault(name, []).append(1000.0 * (end - start - child[i]))

    counts = [dict() for _ in range(runs)]
    for name, _, _, _, run_id, attrs in spans:
        c = counts[run_id - 1]
        c[f"calls.{name}"] = c.get(f"calls.{name}", 0) + 1
        for k, v in (attrs or {}).items():
            c[f"{name}.{k}"] = c.get(f"{name}.{k}", 0) + v

    folds, predicts = _fold_intervals(spans)
    c0 = counts[0] if counts else {}

    def calls(name):
        return c0.get(f"calls.{name}", 0)

    def mean_attr(name, key):
        n = calls(name)
        return c0.get(f"{name}.{key}", 0) / n if n else 0.0

    def p50(name, table=dur):
        return percentile(table.get(name, []), 50.0)

    details = {}

    def tail(name):
        vals = dur.get(name, [])
        p = tail_percentile(len(vals))
        details[f"{name}_ms_tail"] = {"percentile": p, "samples": len(vals)}
        return percentile(vals, p)

    iters = c0.get("optimizer.optimize_weights.iterations", 0)
    accepted = c0.get("optimizer.optimize_weights.accepted", 0)
    cache_bytes = (c0.get("similarity.SimilarityTensor.save.bytes", 0)
                   + c0.get("similarity.SimilarityTensor.load.bytes", 0))
    metrics = {
        "community.louvain_ms_p50": (p50("community.louvain"), "ms"),
        "community.louvain_ms_tail": (tail("community.louvain"), "ms"),
        "community.louvain_calls": (calls("community.louvain"), "count"),
        "community.levels_mean": (mean_attr("community.louvain", "levels"), "count"),
        "community.communities_mean": (mean_attr("community.louvain", "communities"), "count"),
        "community.label_ms_p50": (p50("community.label_communities"), "ms"),
        "optimizer.clustering_error_ms_p50": (p50("optimizer.clustering_error"), "ms"),
        "optimizer.clustering_error_ms_tail": (tail("optimizer.clustering_error"), "ms"),
        "optimizer.clustering_error_self_ms_p50": (p50("optimizer.clustering_error", self_ms), "ms"),
        "optimizer.iterations": (iters, "count"),
        "optimizer.accepted": (accepted, "count"),
        "optimizer.accept_ratio": (accepted / iters if iters else 0.0, "ratio"),
        "netgraph.build_graph_ms_p50": (p50("netgraph.build_graph"), "ms"),
        "netgraph.build_graph_ms_tail": (tail("netgraph.build_graph"), "ms"),
        "netgraph.build_graph_calls": (calls("netgraph.build_graph"), "count"),
        "netgraph.edges_mean": (mean_attr("netgraph.build_graph", "edges"), "count"),
        "similarity.fused_matrix_ms_p50": (p50("similarity.fused_matrix"), "ms"),
        "similarity.build_s": (p50("similarity.build_similarity_tensor") / 1000.0, "s"),
        "similarity.build_calls": (calls("similarity.build_similarity_tensor"), "count"),
        "similarity.save_ms": (p50("similarity.SimilarityTensor.save"), "ms"),
        "similarity.load_ms": (p50("similarity.SimilarityTensor.load"), "ms"),
        "similarity.cache_bytes": (cache_bytes, "bytes"),
        "similarity.subset_ms": (p50("similarity.SimilarityTensor.subset"), "ms"),
        "evaluation.fold_s_p50": (percentile(folds, 50.0), "s"),
        "evaluation.predict_ms": (1000.0 * percentile(predicts, 50.0), "ms"),
        "dataset.load_dataset_ms": (p50("dataset.load_dataset"), "ms"),
        "evaluation.report_ms": (p50("evaluation.report_from_partition"), "ms"),
        "cli.export_ms": (p50("cli.cmd_export_graph"), "ms"),
    }
    return metrics, details, counts


def _fold_intervals(spans):
    """Fold and prediction durations (s) inside each kfold_crossval span.

    Fold i runs from the start of its ``SimilarityTensor.subset`` call to
    the start of the next fold's, the last fold to the end of the
    cross-validation; its prediction part starts where its weight search
    ends.
    """
    folds, predicts = [], []
    for k, (name, start, end, _, _, _) in enumerate(spans):
        if name != "evaluation.kfold_crossval":
            continue
        kids = [s for s in spans if s[3] == k]
        starts = [s[1] for s in kids if s[0] == "similarity.SimilarityTensor.subset"]
        searches = [s[2] for s in kids if s[0] == "optimizer.optimize_weights"]
        bounds = starts[1:] + [end]
        folds += [b - a for a, b in zip(starts, bounds)]
        predicts += [b - a for a, b in zip(searches, bounds)]
    return folds, predicts

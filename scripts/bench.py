"""Run the perfbench workloads over several seeds and write BENCH_<label>.json.

    python3 scripts/bench.py --label 00e9347 --workloads crossval --seeds 0-9
    python3 scripts/bench.py --label change --against /tmp/parent \\
        --against-label parent --workloads crossval,sweep --seeds 0-9

Each (workload, seed) is one untraced ``perfbench/run.py`` process with
the run length from BENCHMARK.json; ``perfbench/`` itself is not changed.
Per-layer numbers come from ``perfbench/run.py --trace 1`` and
``perfbench/compare.py``.  The
file ``bench/BENCH_<label>.json`` of this checkout holds, per workload,
every metric's median and quartiles over the seeds, every run's values,
the environment block and the Louvain backend of the runs: ``c`` or
``python``, from the checkout's own ``simnet._kernels.load()``.  A later
invocation with the same label replaces the workloads it ran and keeps
the others.

``--against DIR`` also benchmarks a second checkout (for example the
parent commit, unpacked with ``git archive``) with its own
``perfbench/run.py``.  The two alternate run by run, the side that goes
first switching with every seed, and its file is written here as
``bench/BENCH_<against-label>.json``; the two labels must differ.  A
table then gives, per end-to-end metric, both medians, the second
checkout's interquartile distance and the number of seeds on which this
checkout did better.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def workload_list(text: str) -> list[str]:
    names = text.split(",")
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown workload(s) {', '.join(unknown)}; choose from {', '.join(WORKLOADS)}")
    return names


def kernel_backend(root: Path) -> str:
    """``c`` when checkout ``root``'s compiled kernels load, else ``python``.

    Asked in a process of its own with that checkout's ``src`` first on
    ``sys.path``: ``perfbench/envinfo.py`` recognises only numba.
    """
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "from simnet import _kernels; "
             "print('c' if _kernels.load() else 'python')")
    proc = subprocess.run([sys.executable, "-c", probe, str(root / "src")],
                          cwd=root, capture_output=True, text=True, check=True,
                          timeout=900)
    return proc.stdout.strip()


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run in checkout ``root``; returns its result file."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"{root}: {workload} seed {seed}: exit {proc.returncode}")
    out = root / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(out.read_text())


def summarize(label: str, results: dict[str, list[dict]], backend: str) -> dict:
    """Per workload: each metric's median and quartiles, and every run."""
    workloads = {}
    env = None
    for workload, runs in results.items():
        env = env or runs[0]["env"]
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0],) * 3)
            metrics[name] = {"unit": first["unit"],
                             "median": statistics.median(vals),
                             "q1": q1, "q3": q3, "values": vals}
        workloads[workload] = {
            "seeds": [r["seed"] for r in runs],
            "failed_checks": sum(len(r["checks"]["failures"]) for r in runs),
            "attempted_checks": sum(r["checks"]["attempted"] for r in runs),
            "metrics": metrics,
        }
    return {"label": label, "run_seconds": SPEC["run_seconds"],
            "louvain_backend": backend,
            "env": env, "workloads": workloads}


def print_pairs(ours: dict, theirs: dict, workloads: list[str]) -> None:
    """Medians, the other side's IQR and per-seed wins, metric by metric."""
    print(f"{'workload':9s} {'metric':14s} {theirs['label']:>12s} "
          f"{ours['label']:>12s} {'change':>8s} {'their IQR':>10s} {'wins':>6s}")
    for workload in workloads:
        w_ours, w_theirs = ours["workloads"][workload], theirs["workloads"][workload]
        for name in (m["name"] for m in SPEC["end_to_end"]):
            a, b = w_theirs["metrics"].get(name), w_ours["metrics"].get(name)
            if a is None or b is None:
                continue
            sign = -1.0 if BETTER.get(name) == "lower" else 1.0
            wins = sum(sign * (vb - va) > 0 for va, vb in zip(a["values"], b["values"]))
            change = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            print(f"{workload:9s} {name:14s} {a['median']:12.6g} {b['median']:12.6g} "
                  f"{change:+8.3f} {a['q3'] - a['q1']:10.4g} "
                  f"{wins:>3d}/{len(a['values'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--workloads", type=workload_list, default=WORKLOADS)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    ap.add_argument("--against", type=Path, default=None)
    ap.add_argument("--against-label", default="baseline")
    args = ap.parse_args(argv)

    sides = [(args.label, ROOT)]
    if args.against is not None:
        if not (args.against / "perfbench" / "run.py").is_file():
            ap.error(f"{args.against} has no perfbench/run.py")
        if args.against_label == args.label:   # one results list, one BENCH file
            ap.error(f"--against-label must differ from --label ({args.label!r})")
        sides.append((args.against_label, args.against.resolve()))
    # probed first, so that a compile falls before the first timed run
    backends = {label: kernel_backend(root) for label, root in sides}
    results = {label: {w: [] for w in args.workloads} for label, _ in sides}
    for workload in args.workloads:
        for i, seed in enumerate(args.seeds):
            for label, root in (sides if i % 2 else sides[::-1]):
                res = run_once(root, workload, seed)
                results[label][workload].append(res)
                print(f"{label} {workload} seed {seed}: wall_s="
                      f"{res['metrics'].get('wall_s', {}).get('value', 0.0):.4f} "
                      f"failed={len(res['checks']['failures'])}", flush=True)

    out_dir = ROOT / "bench"
    out_dir.mkdir(exist_ok=True)
    summaries = {}
    for label, _ in sides:
        summaries[label] = summarize(label, results[label], backends[label])
        path = out_dir / f"BENCH_{label}.json"
        if path.exists():   # keep the workloads this invocation did not run
            kept = json.loads(path.read_text())["workloads"]
            summaries[label]["workloads"] = {**kept, **summaries[label]["workloads"]}
        path.write_text(json.dumps(summaries[label], indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    if args.against is not None:
        print_pairs(summaries[args.label], summaries[args.against_label],
                    args.workloads)
    return 0 if all(s["workloads"][w]["failed_checks"] == 0
                    for s in summaries.values() for w in args.workloads) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sweep --seeds 0-9
    python3 perfbench/spread.py --workload sweep --seeds 0-9 --baseline A

Runs ``run.py`` once per seed, one after another, and prints for every
metric the median, the quartiles from ``statistics.quantiles(n=4)`` and the
interquartile distance as a share of the median, next to the bound in
BENCHMARK.json.  ``--baseline LABEL`` also prints each median's change
against an earlier set saved under that label.  Sets are saved as
``.bench_out/spread-<workload>-trace<t>-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", default="A")
    ap.add_argument("--baseline", default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"seed {seed}: exit {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(res)
        print(f"seed {seed}: correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']}", flush=True)

    OUT.mkdir(exist_ok=True)
    name = f"spread-{args.workload}-trace{args.trace}"
    (OUT / f"{name}-{args.label}.json").write_text(json.dumps(runs) + "\n")
    base = None
    if args.baseline:
        base = json.loads((OUT / f"{name}-{args.baseline}.json").read_text())

    print(f"{'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'spread':>8s} {'bound':>6s}" + ("  vs base" if base else ""))
    for metric in runs[0]["metrics"]:
        vals = [r["metrics"][metric]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(metric)
        line = (f"{metric:40s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                f"{spread:8.3f} {bound if bound is not None else '-':>6}")
        if base:
            bmed = statistics.median(r["metrics"][metric]["value"] for r in base)
            line += f"  {(med - bmed) / bmed if bmed else float('nan'):+.3f}"
        print(line)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

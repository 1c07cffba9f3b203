"""simnet benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 28 --trace 0

Workloads: pipeline, crossval, sweep, tensor (see perfbench/README.md).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps simnet's
public functions and reports the per-layer metrics.  Every run's outputs
are checked against perfbench/goldens.json.  Human-readable lines go to
stdout first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Full results (the
environment block, the time of every run, tail percentiles, failed checks)
go to ``.bench_out/``, and traced runs also write their spans there.
"""

from __future__ import annotations

import os

# one process, no extra threads: pin every BLAS/OpenMP/numba pool to 1
# before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
SETUP_REPS = 3
MIN_TRACED_PASSES = 2   # the exact-count self-check compares traced passes

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "iters_per_s": "1/s",
                    "pairs_per_s": "1/s", "peak_rss_mb": "MB",
                    "pass_frac": "fraction"}


def import_simnet() -> float:
    """Import simnet from this checkout's src/ and return the import time."""
    if not (SRC / "simnet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simnet sources under {SRC}; "
                         "run from the root of a simnet checkout")
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import simnet
    import simnet.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    if Path(simnet.__file__).resolve().parent != (SRC / "simnet").resolve():
        raise SystemExit(f"perfbench: imported simnet from {simnet.__file__}, "
                         f"not from {SRC}")
    return elapsed


class Checks:
    """Tally of output checks; every failure is kept for the result file."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)
            print(f"perfbench: check failed: {label}", file=sys.stderr)


def run_unit(wl, i: int, gold, checks: Checks):
    """Run and check corpus ``i`` once; returns (unit or None, wall_s, cpu_s)."""
    gc.collect()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        u = wl.run(i)
    except Exception:  # a crash is a failed output, reported, never skipped
        traceback.print_exc()
        checks.add(f"{wl.name} corpus {wl.corpus_seeds[i]}: run raised", False)
        return None, time.perf_counter() - t0, time.process_time() - c0
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    for label, ok in wl.checks(u.observed, gold):
        checks.add(f"{wl.name} corpus {wl.corpus_seeds[i]}: {label}", ok)
    return u, wall, cpu


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_s = import_simnet()
    import envinfo
    from tracing import Tracer, summarize
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}"
    workdir = OUT / tag
    shutil.rmtree(workdir, ignore_errors=True)

    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl = cls(args.seed, workdir)
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    table = goldens.get(wl.name, {}).get(str(wl.slot), [])
    golds = [table[j] if j < len(table) else None for j in range(wl.PANEL)]

    # Cycle through the panel until the next run would end after --seconds.
    # A traced run first makes one untraced pass over the panel (the
    # overhead's reference), then at least MIN_TRACED_PASSES traced passes
    # with run ids 1, 2, ...  Timings are medians over the repetitions.
    checks = Checks()
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    if tracer:
        untraced_wall = sum(run_unit(wl, i, golds[i], checks)[1]
                            for i in range(wl.PANEL))
    times = [[] for _ in range(wl.PANEL)]
    cpus = [[] for _ in range(wl.PANEL)]
    builds, units = [], [None] * wl.PANEL
    k = 0
    with tracer or contextlib.nullcontext():
        while True:
            i = k % wl.PANEL
            if tracer and i == 0:
                tracer.run_id += 1
            u, wall, cpu = run_unit(wl, i, golds[i], checks)
            if u is None:
                break
            times[i].append(wall)
            cpus[i].append(cpu)
            builds.append(u.build_s)
            units[i] = u
            k += 1
            if tracer:  # traced runs stop only at the end of a pass
                if k < wl.PANEL * MIN_TRACED_PASSES or k % wl.PANEL:
                    continue
                nxt = sum(statistics.median(t) for t in times)
            else:
                if k < wl.PANEL:
                    continue
                nxt = statistics.median(times[k % wl.PANEL])
            if time.perf_counter() - start + nxt > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    complete = all(times) and None not in units
    wall_s = sum(statistics.median(t) for t in times) if complete else 0.0
    details = {"wall_s_per_run": times}
    if not tracer:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "wall_s": wall_s,
            "iters_per_s": (sum(u.iterations for u in units) / wall_s
                            if complete else 0.0),
            "pairs_per_s": (sum(u.pairs for u in units)
                            / (statistics.median(builds) or wall_s)
                            if complete else 0.0),
            "peak_rss_mb": peak_rss_mb,
            "pass_frac": (1.0 - len(checks.failures) / checks.attempted
                          if checks.attempted else 0.0),
        }
        units_of = END_TO_END_UNITS
    else:
        layer, tails, counts = summarize(tracer.spans, tracer.run_id)
        details.update(tails)
        for n, c in enumerate(counts[1:], start=2):
            checks.add(f"{wl.name}: traced pass {n} exact counts match pass 1",
                       c == counts[0])
        layer["cli.artifact_bytes"] = (
            sum(u.artifact_bytes for u in units) if complete else 0, "bytes")
        layer["run.cpu_s"] = (
            sum(statistics.median(c) for c in cpus) if complete else 0.0, "s")
        layer["run.trace_overhead_s"] = (wall_s - untraced_wall, "s")
        metrics = {k: v for k, (v, _) in layer.items()}
        units_of = {k: u for k, (_, u) in layer.items()}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{tag}.spans.jsonl")

    result = {
        "workload": wl.name, "seed": args.seed, "slot": wl.slot,
        "corpus_seeds": list(wl.corpus_seeds), "seconds": args.seconds,
        "trace": args.trace, "env": envinfo.env_block(ROOT),
        "setup": {"import_s": import_s, "reps_s": setup_times},
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
        "details": details,
        "missing_targets": tracer.missing if tracer else [],
        "checks": {"attempted": checks.attempted, "failures": checks.failures},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")

    for k, v in metrics.items():
        print(f"{k:42s} {v:>16.6f} {units_of[k]}")
    print(f"{'backend':42s} {result['env']['louvain_backend']:>16s}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

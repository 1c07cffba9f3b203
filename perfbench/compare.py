"""Compare two result files written by run.py.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints each metric's change and flags every difference between the two
environment blocks (python, numpy, numba, Louvain backend, BLAS, CPU ...),
because timings from differing environments are not comparable.  Exact
counts (calls, iterations, accepted, edges, levels, communities, bytes)
are flagged when they differ: between two runs of the same code that is
an error, between two commits it names what the change altered.
Exits 1 when anything was flagged.
"""

from __future__ import annotations

import json
import sys

from envinfo import VOLATILE

EXACT_UNITS = ("count", "bytes", "ratio")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__)
    a, b = (json.loads(open(p, encoding="utf-8").read()) for p in argv)
    flagged = 0
    for key in sorted(set(a["env"]) | set(b["env"])):
        va, vb = a["env"].get(key), b["env"].get(key)
        if va != vb and key not in VOLATILE:
            print(f"ENV DIFFERS  {key}: {va!r} -> {vb!r}")
            flagged += 1
    for key in ("workload", "seed", "seconds", "trace"):
        if a[key] != b[key]:
            print(f"RUN DIFFERS  {key}: {a[key]!r} -> {b[key]!r}")
            flagged += 1
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            print(f"{name:42s} missing in second file")
            flagged += 1
            continue
        va, vb = ma["value"], mb["value"]
        change = f"{(vb - va) / va:+.3f}" if va else "   n/a"
        mark = ""
        if ma["unit"] in EXACT_UNITS and va != vb:
            mark = "  COUNT DIFFERS"
            flagged += 1
        print(f"{name:42s} {va:16.6g} {vb:16.6g} {change}{mark}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

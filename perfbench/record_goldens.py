"""Record the output goldens that run.py checks every run against.

Run from the root of a checkout, at the commit whose outputs are the
reference (the goldens were recorded at the commit that added the
benchmark):

    python3 perfbench/record_goldens.py            # every workload
    python3 perfbench/record_goldens.py --workload tensor

It runs each workload once per slot 0..SLOTS-1, writes
perfbench/goldens.json and exits non-zero if an accuracy floor fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import GOLDENS, OUT, ROOT, import_simnet


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append")
    args = ap.parse_args(argv)
    import_simnet()
    import envinfo
    from workloads import SLOTS, WORKLOADS

    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    env = envinfo.env_block(ROOT)
    goldens["recorded_at"] = {k: env[k] for k in ("git_sha", "git_dirty", "src_sha256")}
    bad = 0
    for name in args.workload or list(WORKLOADS):
        cls = WORKLOADS[name]
        table = goldens.setdefault(name, {})
        for slot in range(SLOTS):
            wl = cls(slot, OUT / "goldens" / f"{name}-{slot}")
            wl.setup()
            table[str(slot)] = []
            for i, cs in enumerate(wl.corpus_seeds):
                obs = wl.run(i).observed
                table[str(slot)].append(wl.record(obs))
                failed = [label for label, ok in wl.checks(obs, wl.record(obs))
                          if not ok]
                bad += len(failed)
                print(f"{name} slot {slot} corpus {cs}: "
                      f"{'ok' if not failed else 'FAILED ' + ', '.join(failed)}",
                      flush=True)
        GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Threshold sweep with error attribution.

Optimizes fusion weights independently at each edge threshold, then breaks
every run's errors down into two diagnostics: samples stuck in Unlabeled
(singleton or voter-free) communities, and samples with no graph connection
at all.  Tight thresholds trade wrong-family errors for Unlabeled ones;
this script shows where that trade stops paying.
"""

import argparse
from dataclasses import replace

from simnet import (OptimizerConfig, build_similarity_tensor, classify,
                    derive_seed, generate_planted, threshold_sweep)
from simnet.evaluation import CLASSIFY_SALT


def build_parser():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--families", type=int, default=8)
    ap.add_argument("--per-family", type=int, default=50)
    ap.add_argument("--mutation-rate", type=float, default=0.10)
    ap.add_argument("--data-seed", type=int, default=7)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--lo", type=int, default=80, help="lowest threshold, percent")
    ap.add_argument("--hi", type=int, default=95, help="highest threshold, percent")
    ap.add_argument("--iterations", type=int, default=200)
    ap.add_argument("--lr", type=float, default=0.05)
    return ap


def main():
    ap = build_parser()
    args = ap.parse_args()
    # every value is checked before the tensor build and the searches
    try:
        ds = generate_planted(args.families, args.per_family,
                              args.mutation_rate, args.data_seed)
        cfg = OptimizerConfig(iterations=args.iterations, learning_rate=args.lr,
                              seed=args.seed)
        thresholds = [pct / 100.0 for pct in range(args.lo, args.hi + 1)]
        if not thresholds:
            raise ValueError(f"empty threshold range: {args.lo}-{args.hi}")
        for th in thresholds:
            replace(cfg, threshold=th)  # rejects one outside [0, 1]
    except ValueError as e:
        ap.error(str(e))
    tensor = build_similarity_tensor(ds)
    sweep = threshold_sweep(tensor, ds, cfg, thresholds)

    # rescore each point's learned weights to attribute its errors
    reports = [classify(tensor, ds, pt.best_weights, pt.threshold,
                        derive_seed(args.seed, CLASSIFY_SALT))
               for pt in sweep.points]
    isolated_everywhere = set(reports[0].no_connection_ids)
    for rep in reports[1:]:
        isolated_everywhere &= set(rep.no_connection_ids)
    # an isolated sample is a singleton community, and a singleton is
    # Unlabeled, so every labeled one is an error at every threshold
    no_conn = len(isolated_everywhere.intersection(ds.labeled_ids))

    print(f"{'thr%':>5} {'accuracy':>9} {'errors':>7} {'unlabeled':>10} "
          f"{'no-conn':>8}")
    for pt, rep in zip(sweep.points, reports):
        errors = len(ds.labeled_ids) - int(rep.confusion.trace())
        print(f"{pt.threshold * 100:5.1f} {pt.accuracy:9.4f} "
              f"{errors:7d} {rep.unlabeled_count:10d} {no_conn:8d}")
    print(f"\nbest threshold {sweep.best_threshold * 100:.1f} "
          f"(accuracy {max(pt.accuracy for pt in sweep.points):.4f})")
    if isolated_everywhere:
        print(f"{len(isolated_everywhere)} samples isolated at every "
              f"threshold: {sorted(isolated_everywhere)[:8]} ...")


if __name__ == "__main__":
    main()

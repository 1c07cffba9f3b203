#!/usr/bin/env python3
"""End-to-end planted-family experiment.

Generates a synthetic corpus with known family ground truth, learns fusion
weights by greedy search, scores the final clustering, and cross-validates
prediction accuracy on held-out folds.  The defaults reproduce the standard
8x50 benchmark configuration.
"""

import argparse
import time
from pathlib import Path

from simnet import (OptimizerConfig, build_similarity_tensor, classify,
                    derive_seed, generate_planted, kfold_crossval,
                    optimize_weights, save_dataset, stratified_folds)
from simnet.evaluation import CLASSIFY_SALT


def build_parser():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--families", type=int, default=8)
    ap.add_argument("--per-family", type=int, default=50)
    ap.add_argument("--mutation-rate", type=float, default=0.10)
    ap.add_argument("--data-seed", type=int, default=7)
    ap.add_argument("--seed", type=int, default=0, help="optimizer seed")
    ap.add_argument("--threshold", type=float, default=0.90)
    ap.add_argument("--iterations", type=int, default=1000)
    ap.add_argument("--lr", type=float, default=0.05)
    ap.add_argument("--k", type=int, default=5, help="cross-validation folds")
    ap.add_argument("--save-dataset", type=Path, default=None,
                    help="also write the generated corpus as JSONL")
    return ap


def main():
    ap = build_parser()
    args = ap.parse_args()
    # every value is checked before the tensor build and the search
    try:
        ds = generate_planted(args.families, args.per_family,
                              args.mutation_rate, args.data_seed)
        cfg = OptimizerConfig(iterations=args.iterations, learning_rate=args.lr,
                              threshold=args.threshold, seed=args.seed)
        stratified_folds(ds, args.k, cfg.seed)
    except ValueError as e:
        ap.error(str(e))
    if args.save_dataset:
        save_dataset(ds, args.save_dataset)
        print(f"dataset  -> {args.save_dataset}")

    t0 = time.perf_counter()
    tensor = build_similarity_tensor(ds)
    print(f"tensor   {tensor.n} samples in {time.perf_counter() - t0:.2f}s")

    t0 = time.perf_counter()
    trace = optimize_weights(tensor, ds, cfg)
    accepted = sum(1 for e in trace.history[1:] if e.accepted)
    print(f"search   {args.iterations} iterations "
          f"({accepted} accepted) in {time.perf_counter() - t0:.2f}s")
    print(f"         baseline error {trace.history[0].error:.4f} "
          f"-> best {trace.best_error:.4f}")
    print("weights  " + "  ".join(
        f"{k}={v:.4f}" for k, v in trace.best_weights.as_dict().items()))

    report = classify(tensor, ds, trace.best_weights, args.threshold,
                      derive_seed(args.seed, CLASSIFY_SALT))
    print(f"classify accuracy {report.accuracy:.4f}  "
          f"modularity {report.modularity:.4f}  "
          f"unlabeled {report.unlabeled_count}  "
          f"isolated {len(report.no_connection_ids)}")

    t0 = time.perf_counter()
    cv = kfold_crossval(ds, args.k, cfg, tensor=tensor)
    print(f"crossval {args.k} folds in {time.perf_counter() - t0:.2f}s")
    for fr in cv.per_fold:
        print(f"  fold {fr.fold}  classification {fr.classification_accuracy:.4f}"
              f"  prediction {fr.prediction_accuracy:.4f}")
    print(f"mean prediction accuracy {cv.mean_prediction_accuracy:.4f}")


if __name__ == "__main__":
    main()

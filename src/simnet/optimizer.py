"""Greedy weight search over the fusion simplex, plus threshold sweeps.

Each iteration perturbs one coordinate of the incumbent best weights by
±learning_rate, clamps at zero, renormalizes to the simplex, reclusters,
and keeps the proposal only on a strict error decrease.  Clustering error
is evaluated on the cached similarity tensor, so no digest or Jaccard is
ever recomputed during the search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .community import cluster
from .dataset import Dataset
from .similarity import SimilarityTensor, WeightVector


class NoLabeledSamplesError(ValueError):
    """Clustering error is undefined without ground-truth labels."""


def derive_seed(*parts: int) -> int:
    """Stable, order-sensitive child seed from integer parts."""
    ss = np.random.SeedSequence([p % (2 ** 64) for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class OptimizerConfig:
    iterations: int = 1000
    learning_rate: float = 0.05
    threshold: float = 0.90
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    weights: WeightVector
    error: float
    accepted: bool


@dataclass(frozen=True)
class OptimizerTrace:
    best_weights: WeightVector
    best_error: float
    history: tuple[TraceEntry, ...]


def clustering_error(t: SimilarityTensor, ds: Dataset, w: WeightVector,
                     threshold: float, seed: int) -> float:
    """1 − (labeled nodes whose community label matches their family) / labeled.

    Members of Unlabeled (singleton or voter-free) communities count as
    wrong.
    """
    labeled = ds.labeled_ids
    if not labeled:
        raise NoLabeledSamplesError("dataset has no labeled samples")
    _, p = cluster(t, ds, w, threshold, seed)
    rows = ds.family_codes >= 0
    correct = np.count_nonzero(p.label_codes[p.membership[rows]]
                               == ds.family_codes[rows])
    return 1.0 - int(correct) / len(labeled)


def propose_weights(rng: np.random.Generator, base: WeightVector,
                    step: float) -> WeightVector:
    """One ±step nudge of a random coordinate, clamped and renormalized."""
    coord = int(rng.integers(4))
    sign = 1.0 if int(rng.integers(2)) == 0 else -1.0
    arr = base.as_array()
    arr[coord] = max(arr[coord] + sign * step, 0.0)
    total = arr.sum()
    if total <= 0.0:  # only reachable from a vertex with step 1.0
        return WeightVector.equal()
    return WeightVector.from_array(arr / total)


def optimize_weights(t: SimilarityTensor, ds: Dataset,
                     cfg: OptimizerConfig) -> OptimizerTrace:
    """Error-driven greedy search for fusion weights.

    Runs exactly cfg.iterations proposals after scoring equal weights
    (recorded as iteration 0).  The Louvain seed for iteration i
    derives from (cfg.seed, i), so a proposal's score never depends on
    which earlier proposals were accepted.
    """
    rng = np.random.default_rng(cfg.seed % (2 ** 64))
    best_w = WeightVector.equal()
    best_err = clustering_error(t, ds, best_w, cfg.threshold,
                                derive_seed(cfg.seed, 0))
    history = [TraceEntry(0, best_w, best_err, True)]
    for it in range(1, cfg.iterations + 1):
        cand = propose_weights(rng, best_w, cfg.learning_rate)
        err = clustering_error(t, ds, cand, cfg.threshold,
                               derive_seed(cfg.seed, it))
        accepted = err < best_err
        if accepted:
            best_w, best_err = cand, err
        history.append(TraceEntry(it, cand, err, accepted))
    return OptimizerTrace(best_w, best_err, tuple(history))


@dataclass(frozen=True)
class SweepPoint:
    threshold: float
    best_weights: WeightVector
    accuracy: float


@dataclass(frozen=True)
class SweepReport:
    points: tuple[SweepPoint, ...]
    best_threshold: float


def threshold_sweep(t: SimilarityTensor, ds: Dataset, cfg: OptimizerConfig,
                    thresholds) -> SweepReport:
    """Independent optimize_weights run per threshold.

    accuracy = 1 − best_error at that threshold; best_threshold is the
    argmax, ties going to the earliest listed threshold.
    """
    thresholds = [float(th) for th in thresholds]
    if not thresholds:
        raise ValueError("thresholds must be non-empty")
    points = []
    for th in thresholds:
        trace = optimize_weights(t, ds, replace(cfg, threshold=th))
        points.append(SweepPoint(th, trace.best_weights, 1.0 - trace.best_error))
    best = int(np.argmax([p.accuracy for p in points]))
    return SweepReport(tuple(points), points[best].threshold)

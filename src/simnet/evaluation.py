"""Accuracy reports and stratified K-fold cross-validation."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .community import Partition, cluster
from .dataset import Dataset
from .netgraph import SimilarityGraph
from .optimizer import (NoLabeledSamplesError, OptimizerConfig, derive_seed,
                        optimize_weights)
from .similarity import SimilarityTensor, WeightVector

UNLABELED = "Unlabeled"

# salts for derive_seed: fold assignment (_STRAT_SALT), each fold's search
# and prediction seeds (_OPT_SALT, f) and (_PRED_SALT, f), and the final
# classification after a search (CLASSIFY_SALT).  They do not give streams
# disjoint from the search's own: optimize_weights seeds iteration i with
# derive_seed(seed, i), so derive_seed(seed, _STRAT_SALT) and
# derive_seed(seed, CLASSIFY_SALT) are iterations 3 and 5's Louvain seeds, and
# since SeedSequence ignores trailing zero words, fold 0's (_OPT_SALT, 0) and
# (_PRED_SALT, 0) are iterations 1 and 2's.  Tests and benchmark goldens pin
# every seed, so the values stay.
_OPT_SALT, _PRED_SALT, _STRAT_SALT = 1, 2, 3
CLASSIFY_SALT = 5


class StratificationError(ValueError):
    """A family has fewer labeled samples than there are folds."""

    def __init__(self, family: str, count: int, k: int):
        self.family = family
        self.count = count
        self.k = k
        super().__init__(
            f"family {family!r} has {count} labeled samples, fewer than k={k}")


@dataclass(frozen=True, eq=False)
class ClusteringReport:
    """Outcome of one classify run.

    ``confusion`` rows follow ``families`` (ground truth), columns follow
    ``columns`` = families + ("Unlabeled",).  ``predictions`` maps every
    labeled sample to its community's label.
    """

    accuracy: float
    families: tuple[str, ...]
    columns: tuple[str, ...]
    confusion: np.ndarray
    unlabeled_count: int
    no_connection_ids: tuple[str, ...]
    modularity: float
    weights: WeightVector
    threshold: float
    predictions: dict[str, str]

    def confusion_dict(self) -> dict[str, dict[str, int]]:
        return {fam: {col: int(self.confusion[i, j])
                      for j, col in enumerate(self.columns)}
                for i, fam in enumerate(self.families)}


def report_from_partition(g: SimilarityGraph, p: Partition,
                          ds: Dataset) -> ClusteringReport:
    """Score a labeled partition of ``ds``'s samples, in ``ds`` order, against ground truth."""
    labeled = ds.labeled_ids
    if not labeled:
        raise NoLabeledSamplesError("dataset has no labeled samples")
    if p.node_ids != ds.ids:
        raise ValueError("partition node_ids do not match dataset order")
    if p.families != ds.families and (p.label_codes >= 0).any():
        raise ValueError("partition families do not match dataset families")
    families = ds.families
    columns = families + (UNLABELED,)
    n_fams = len(families)
    rows = np.flatnonzero(ds.family_codes >= 0)
    truth = ds.family_codes[rows]
    pred = p.label_codes[p.membership[rows]]
    col = np.where(pred >= 0, pred, n_fams)      # Unlabeled is the last column
    confusion = np.bincount(truth * (n_fams + 1) + col,
                            minlength=n_fams * (n_fams + 1)).reshape(n_fams, n_fams + 1)
    return ClusteringReport(
        accuracy=int(np.trace(confusion)) / len(labeled),
        families=families,
        columns=columns,
        confusion=confusion,
        unlabeled_count=int(confusion[:, n_fams].sum()),
        no_connection_ids=tuple(g.node_ids[i]
                                for i in np.flatnonzero(g.degrees() == 0)),
        modularity=p.modularity,
        weights=g.weights_used,
        threshold=g.threshold,
        predictions={nid: columns[c] for nid, c in zip(labeled, col.tolist())},
    )


def classify(t: SimilarityTensor, ds: Dataset, w: WeightVector,
             threshold: float, seed: int) -> ClusteringReport:
    """Full pipeline on one weight vector: graph, Louvain, labels, report."""
    g, p = cluster(t, ds, w, threshold, seed)
    return report_from_partition(g, p, ds)


@dataclass(frozen=True)
class FoldResult:
    fold: int
    classification_accuracy: float
    prediction_accuracy: float
    weights: WeightVector


@dataclass(frozen=True)
class CrossValReport:
    k: int
    per_fold: tuple[FoldResult, ...]
    mean_prediction_accuracy: float


def stratified_folds(ds: Dataset, k: int, seed: int) -> tuple[tuple[str, ...], ...]:
    """Partition the labeled ids into k family-stratified folds.

    Every family's samples are shuffled (seeded) and dealt round-robin, so
    per-family fold counts differ by at most one.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    for fam, count in ds.label_census().items():
        if count < k:
            raise StratificationError(fam, count, k)
    rng = np.random.default_rng(derive_seed(seed, _STRAT_SALT))
    folds: list[list[str]] = [[] for _ in range(k)]
    for code in range(len(ds.families)):
        rows = np.flatnonzero(ds.family_codes == code)
        for pos, idx in enumerate(rng.permutation(len(rows))):
            folds[pos % k].append(ds.ids[rows[idx]])
    return tuple(tuple(f) for f in folds)


def kfold_crossval(ds: Dataset, k: int, cfg: OptimizerConfig,
                   tensor: SimilarityTensor) -> CrossValReport:
    """Stratified K-fold: learn weights on training samples, predict the rest.

    Per fold, weights are optimized on the training-only sub-tensor (the
    search stops at its first zero error, see optimize_weights); the
    prediction graph then spans training and test nodes together, but only
    training nodes vote when communities are labeled.  A test node whose
    community is Unlabeled counts as a miss.
    """
    folds = stratified_folds(ds, k, cfg.seed)
    if tensor.sample_order != ds.ids:
        raise ValueError("tensor sample_order does not match dataset order")
    per_fold = []
    for f, test_ids in enumerate(folds):
        test = np.isin(ds.ids, test_ids)
        train_idx = np.flatnonzero(~test)
        sub_ds = ds.subset(ds.ids[i] for i in train_idx)
        sub_t = tensor.subset(train_idx)
        fold_cfg = replace(cfg, seed=derive_seed(cfg.seed, _OPT_SALT, f))
        trace = optimize_weights(sub_t, sub_ds, fold_cfg, stop_at_zero=True)

        _, p = cluster(tensor, ds, trace.best_weights, cfg.threshold,
                       derive_seed(cfg.seed, _PRED_SALT, f), voters=~test)
        correct = np.count_nonzero(p.label_codes[p.membership[test]]
                                   == ds.family_codes[test])
        per_fold.append(FoldResult(
            fold=f,
            classification_accuracy=1.0 - trace.best_error,
            prediction_accuracy=int(correct) / len(test_ids),
            weights=trace.best_weights,
        ))
    mean = sum(r.prediction_accuracy for r in per_fold) / k
    return CrossValReport(k, tuple(per_fold), mean)

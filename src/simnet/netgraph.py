"""Thresholded weighted similarity network built from a tensor."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .similarity import SimilarityTensor, WeightVector, fused_matrix, pair_indices


@dataclass(frozen=True, eq=False)
class SimilarityGraph:
    """Undirected weighted graph; node k is sample node_ids[k].

    Edges are stored as parallel arrays with src < dst; every weight is the
    fused similarity of the pair and strictly exceeds the threshold.
    """

    node_ids: tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    threshold: float
    weights_used: WeightVector

    @property
    def n(self) -> int:
        return len(self.node_ids)

    @property
    def edge_count(self) -> int:
        return int(self.src.shape[0])

    def edges(self) -> Iterator[tuple[int, int, float]]:
        for i, j, w in zip(self.src, self.dst, self.weight):
            yield int(i), int(j), float(w)

    def degrees(self) -> np.ndarray:
        return (np.bincount(self.src, minlength=self.n)
                + np.bincount(self.dst, minlength=self.n))

    @classmethod
    def from_edges(cls, node_ids, edge_list, threshold: float = 0.0,
                   weights_used: WeightVector | None = None) -> "SimilarityGraph":
        """Build a graph directly from (i, j, weight) triples (test fixtures)."""
        node_ids = tuple(node_ids)
        n = len(node_ids)
        seen = set()
        src, dst, wt = [], [], []
        for i, j, w in edge_list:
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            i, j = (i, j) if i < j else (j, i)
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            if not (threshold < w <= 1.0):
                raise ValueError(f"edge weight {w} outside ({threshold}, 1]")
            seen.add((i, j))
            src.append(i)
            dst.append(j)
            wt.append(w)
        return cls(node_ids, np.array(src, dtype=np.int64),
                   np.array(dst, dtype=np.int64), np.array(wt, dtype=np.float64),
                   float(threshold), weights_used or WeightVector.equal())


def build_graph(t: SimilarityTensor, w: WeightVector,
                threshold: float) -> SimilarityGraph:
    """Connect every pair whose fused similarity strictly exceeds threshold.

    Isolated nodes stay in the node list.  A graph at threshold 1.0 need
    not be edgeless: WeightVector allows a sum up to 1 + 1e-9, so
    WeightVector(0.25, 0.25, 0.25, 0.2500000009) fuses a pair with every
    feature at 1.0 to 1.0000000009, which exceeds 1.0.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    fs = fused_matrix(t, w)
    iu, ju = pair_indices(t.n)
    keep = fs > threshold
    return SimilarityGraph(t.sample_order, iu[keep], ju[keep],
                           fs[keep], threshold, w)

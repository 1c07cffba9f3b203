"""Louvain community detection and majority-vote community labeling.

Two phases, repeated until a level yields no move: greedy local moves in
seeded-shuffled node order (a move is kept only if it strictly increases
modularity), then aggregation of communities into super-nodes whose
intra-community weight becomes a self-loop.

Weight optimization runs Louvain thousands of times per search, so the
local moves live in one kernel over CSR adjacency: the plain algorithm of
Blondel et al. (2008), where every visit rescans the node's edges.  When a
C compiler is available (see ``_kernels``), the copy compiled from
``_kernels.c`` runs on numpy arrays.  Otherwise `_local_moves` runs in
Python on lists, which CPython indexes far faster than numpy arrays.  The
two kernels run one algorithm, line for line, and the C code keeps every
float operation in Python's order, so both give the same gains,
tie-breaks, partitions and move logs.  `_local_moves` is the reference
the compiled kernel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from . import _kernels
from .dataset import Dataset
from .netgraph import SimilarityGraph, build_graph
from .similarity import SimilarityTensor, WeightVector


class ModularityUndefinedError(ValueError):
    """Raised when modularity is requested on a graph with no edges."""


@dataclass(frozen=True)
class LevelTrace:
    """One level's graph, sweep order, and accepted moves, for auditing."""

    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    self_weight: np.ndarray
    order: np.ndarray
    moves: np.ndarray          # rows of (node, from_community, to_community)
    final_membership: np.ndarray


@dataclass(frozen=True, eq=False)
class Partition:
    """A community assignment over a graph's nodes."""

    node_ids: tuple[str, ...]
    membership: np.ndarray     # community id per node, aligned with node_ids
    modularity: float
    label_codes: np.ndarray    # index into families per community; -1 = Unlabeled
    level_count: int
    families: tuple[str, ...] = ()
    trace: tuple[LevelTrace, ...] | None = field(default=None, repr=False)

    @property
    def community_labels(self) -> dict[int, str | None]:
        """Community id -> family name, None where Unlabeled."""
        return {c: (self.families[code] if code >= 0 else None)
                for c, code in enumerate(self.label_codes.tolist())}

    @property
    def assignment(self) -> dict[str, int]:
        return {nid: int(c) for nid, c in zip(self.node_ids, self.membership)}

    @property
    def n_communities(self) -> int:
        return int(self.membership.max()) + 1 if len(self.membership) else 0

    def communities(self) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        for nid, c in zip(self.node_ids, self.membership):
            out.setdefault(int(c), []).append(nid)
        return out


def _weighted_degrees(n: int, src, dst, w, self_w=None) -> np.ndarray:
    # astype: bincount on empty input comes back int64 even with weights
    k = (np.bincount(src, weights=w, minlength=n)
         + np.bincount(dst, weights=w, minlength=n)).astype(np.float64)
    if self_w is not None:
        k += 2.0 * self_w
    return k


def _q_arrays(n: int, src, dst, w, self_w, comm) -> float:
    """Modularity of an assignment on edge arrays (self-loops allowed)."""
    m = float(w.sum()) + (float(self_w.sum()) if self_w is not None else 0.0)
    k = _weighted_degrees(n, src, dst, w, self_w)
    w_in = float(w[comm[src] == comm[dst]].sum())
    if self_w is not None:
        w_in += float(self_w.sum())
    s_c = np.bincount(comm, weights=k)
    return w_in / m - float(((s_c / (2.0 * m)) ** 2).sum())


def modularity(g: SimilarityGraph, assignment: Mapping[str, int]) -> float:
    """Q = (1/2m) Σij [Aij − ki·kj/2m] δ(ci, cj), on edge weights."""
    if g.edge_count == 0:
        raise ModularityUndefinedError("modularity is undefined on an edgeless graph")
    comm = np.array([assignment[nid] for nid in g.node_ids], dtype=np.int64)
    return _q_arrays(g.n, g.src, g.dst, g.weight, None, _canonical(comm))


# ---------------------------------------------------------------------------
# Louvain internals
# ---------------------------------------------------------------------------

def _build_csr(n: int, src, dst, w):
    """Symmetric CSR adjacency; each row lists its edges in edge-list order.

    Edge e contributes (src→dst) then (dst→src); a stable sort on the
    interleaved row keys keeps that order within every row, which fixes
    the float summation and tie-break order of the local moves.
    """
    rows = np.column_stack((src, dst)).ravel()
    cols = np.column_stack((dst, src)).ravel()
    perm = np.argsort(rows, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[perm], np.repeat(w, 2)[perm]


def _local_moves(indptr, indices, weights, k, m, order, moves):
    """Sweep nodes in `order` until a full pass moves nothing.

    A node joins the neighbouring community with the largest gain
    k_x_in(C) − Σtot(C)·k_x/2m (evaluated with the node removed); staying
    put wins ties, so only strict modularity increases are accepted.
    Every accepted move is appended to `moves` as (node, from, to).
    Returns each node's community, starting from singletons.

    Every visit of node x rescans its CSR row, summing the edge weights
    per neighbouring community into `comm_w` (zeros) and listing those
    communities in `touched` in order of first appearance.  Edgeless nodes
    are skipped: no node can join their community, so they never move and
    its Σtot stays k_x.
    """
    n = len(k)
    comm = list(range(n))
    comm_tot = list(k)
    comm_w = [0.0] * n
    touched = []
    two_m = 2.0 * m
    moved = True
    while moved:
        moved = False
        for x in order:
            lo = indptr[x]
            hi = indptr[x + 1]
            if lo == hi:
                continue
            cx = comm[x]
            kx = k[x]
            for e in range(lo, hi):
                cy = comm[indices[e]]
                if comm_w[cy] == 0.0:
                    touched.append(cy)
                comm_w[cy] += weights[e]
            comm_tot[cx] -= kx
            best_c = cx
            best_gain = comm_w[cx] - comm_tot[cx] * kx / two_m
            for c in touched:
                if c == cx:
                    continue
                gain = comm_w[c] - comm_tot[c] * kx / two_m
                if gain > best_gain:
                    best_gain = gain
                    best_c = c
            comm_tot[best_c] += kx
            for c in touched:
                comm_w[c] = 0.0
            touched.clear()
            if best_c != cx:
                comm[x] = best_c
                moves.append((x, cx, best_c))
                moved = True
    return comm


# rows of the compiled move log: 2n + 16; no measured level moved over 1.29n
_LOG_ROWS_PER_NODE, _LOG_SPARE_ROWS = 2, 16


def _run_level(n, src, dst, w, self_w, order):
    """Local moves from singletons on one level's graph.

    Returns (comm, moves) as int64 arrays, moves as (node, from, to) rows.
    An edgeless level has no moves and builds no CSR.  `_local_moves` runs
    when the compiled kernel is unavailable or fills its log; both give the same.
    """
    if len(src) == 0:
        return np.arange(n, dtype=np.int64), np.empty((0, 3), dtype=np.int64)
    csr = _build_csr(n, src, dst, w)
    k = _weighted_degrees(n, src, dst, w, self_w)
    m = float(w.sum()) + float(self_w.sum())
    kernels = _kernels.load()
    if kernels is not None:
        done = kernels.local_moves(*csr, k, m, order,
                                   _LOG_ROWS_PER_NODE * n + _LOG_SPARE_ROWS)
        if done is not None:
            return done
    moves = []
    comm = _local_moves(*(a.tolist() for a in csr), k.tolist(), m, order.tolist(),
                        moves)
    return (np.array(comm, dtype=np.int64),
            np.array(moves, dtype=np.int64).reshape(-1, 3))


def _aggregate(src, dst, w, self_w, comm, n_comms):
    """Collapse communities to super-nodes; intra weight becomes self-loops."""
    cu, cv = comm[src], comm[dst]
    lo, hi = np.minimum(cu, cv), np.maximum(cu, cv)
    intra = lo == hi
    new_self = np.bincount(comm, weights=self_w, minlength=n_comms)
    if intra.any():
        new_self += np.bincount(lo[intra], weights=w[intra], minlength=n_comms)
    keep = ~intra
    key = lo[keep] * np.int64(n_comms) + hi[keep]
    uniq, inv = np.unique(key, return_inverse=True)
    agg_w = np.bincount(inv, weights=w[keep])
    return uniq // n_comms, uniq % n_comms, agg_w, new_self


def _canonical(membership: np.ndarray) -> np.ndarray:
    """Renumber community ids to 0.. in order of first appearance."""
    uniq, first, inv = np.unique(membership, return_index=True, return_inverse=True)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(uniq))
    return rank[inv]


def louvain(g: SimilarityGraph, seed: int, track: bool = False) -> Partition:
    """Two-phase Louvain on a similarity graph.

    Deterministic for a given (graph, seed): node sweep order is one
    seeded shuffle per level, and community ids follow first appearance.
    An edgeless graph comes back as all singletons with modularity 0.
    With ``track`` the returned partition carries per-level move logs for
    auditing; the last level moved nothing (an edgeless graph's only one).
    """
    n = g.n
    if n == 0:
        raise ValueError("graph has no nodes")

    rng = np.random.default_rng(seed % (2 ** 64))
    src = g.src.astype(np.int64)
    dst = g.dst.astype(np.int64)
    w = g.weight.astype(np.float64)
    self_w = np.zeros(n, dtype=np.float64)
    membership = np.arange(n, dtype=np.int64)
    levels: list[LevelTrace] = []
    level_count = 0
    n_lv = n
    while True:
        order = rng.permutation(n_lv).astype(np.int64)
        comm, moves = _run_level(n_lv, src, dst, w, self_w, order)
        if track:
            levels.append(LevelTrace(src, dst, w, self_w, order, moves, comm))
        if len(moves) == 0:
            break
        comm = _canonical(comm)
        n_comms = int(comm.max()) + 1
        membership = comm[membership]
        src, dst, w, self_w = _aggregate(src, dst, w, self_w, comm, n_comms)
        level_count += 1
        n_lv = n_comms

    q = _q_arrays(n, g.src, g.dst, g.weight, None, membership) if g.edge_count else 0.0
    return Partition(g.node_ids, membership, q,
                     np.full(int(membership.max()) + 1, -1, dtype=np.int64),
                     level_count, trace=tuple(levels) if track else None)


# ---------------------------------------------------------------------------
# Labeling
# ---------------------------------------------------------------------------

def label_communities(p: Partition, ds: Dataset,
                      voters: np.ndarray | None = None) -> Partition:
    """Label each community with the plurality family among its voters.

    ``p`` partitions ``ds``'s samples in ``ds`` order (else ValueError);
    ``voters`` masks ``ds``'s rows, None for every labeled sample, and
    unlabeled samples never vote.  Ties go to the smallest family code, the
    lexicographically smallest family.  Singleton communities and
    communities without votes stay unlabeled (code -1).
    """
    if p.node_ids != ds.ids:
        raise ValueError("partition node_ids do not match dataset order")
    fam = ds.family_codes
    vote = fam >= 0 if voters is None else voters & (fam >= 0)
    n_comms = p.n_communities
    n_fams = max(len(ds.families), 1)   # one empty column when none is labeled
    votes = np.bincount(p.membership[vote] * n_fams + fam[vote],
                        minlength=n_comms * n_fams).reshape(n_comms, n_fams)
    size = np.bincount(p.membership, minlength=n_comms)
    codes = np.where(votes.any(axis=1) & (size > 1), votes.argmax(axis=1), -1)
    return replace(p, label_codes=codes, families=ds.families)


def cluster(t: SimilarityTensor, ds: Dataset, w: WeightVector, threshold: float,
            seed: int, voters: np.ndarray | None = None,
            graph: SimilarityGraph | None = None,
            ) -> tuple[SimilarityGraph, Partition]:
    """build_graph → louvain → label_communities, whose ``voters`` row mask it takes.

    ``graph``, when given, is ``build_graph(t, w, threshold)`` built earlier,
    and is used in its place.
    """
    if t.sample_order != ds.ids:
        raise ValueError("tensor sample_order does not match dataset order")
    g = build_graph(t, w, threshold) if graph is None else graph
    return g, label_communities(louvain(g, seed), ds, voters)

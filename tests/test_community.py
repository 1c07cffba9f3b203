import hashlib
import struct
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simnet import (Dataset, ModularityUndefinedError, Sample,
                    SimilarityGraph, label_communities, louvain, modularity)
from simnet.community import (Partition, _build_csr, _canonical,
                              _local_moves, _q_arrays, _run_level,
                              _weighted_degrees)

from louvain_oracle import full_rescan_level


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def brute_q(n, edges, comm, self_w=None):
    """Modularity straight from the definition, plain python."""
    m = sum(w for _, _, w in edges)
    if self_w is not None:
        m += sum(self_w)
    k = [0.0] * n
    for i, j, w in edges:
        k[i] += w
        k[j] += w
    if self_w is not None:
        for i, sw in enumerate(self_w):
            k[i] += 2.0 * sw
    w_in = sum(w for i, j, w in edges if comm[i] == comm[j])
    if self_w is not None:
        w_in += sum(self_w)
    s = defaultdict(float)
    for i in range(n):
        s[comm[i]] += k[i]
    return w_in / m - sum((sc / (2.0 * m)) ** 2 for sc in s.values())


def set_partitions(n):
    """Every partition of range(n), as restricted growth strings."""
    def rec(i, a, mx):
        if i == n:
            yield tuple(a)
            return
        for c in range(mx + 2):
            a.append(c)
            yield from rec(i + 1, a, max(mx, c))
            a.pop()
    yield from rec(0, [], -1)


def best_partition_q(n, edges):
    return max(brute_q(n, edges, comm) for comm in set_partitions(n))


def random_graph(rng, n, p=0.5):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j, round(rng.uniform(0.1, 1.0), 3)))
    if not edges:
        edges.append((0, 1, 0.5))
    ids = tuple(f"n{i}" for i in range(n))
    return SimilarityGraph.from_edges(ids, edges), edges


def two_cliques_graph(bridge=0.01):
    edges = [(i, j, 1.0) for grp in (range(5), range(5, 10))
             for i in grp for j in grp if i < j]
    edges.append((0, 5, bridge))
    return SimilarityGraph.from_edges(tuple(f"n{i}" for i in range(10)), edges)


# ---------------------------------------------------------------------------
# modularity
# ---------------------------------------------------------------------------

class TestModularity:
    def test_two_disjoint_triangles_exactly_half(self):
        edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                 (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]
        g = SimilarityGraph.from_edges(tuple("abcdef"), edges)
        assign = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1}
        assert modularity(g, assign) == 0.5

    def test_single_community_is_zero(self):
        g, _ = random_graph(np.random.default_rng(1), 6)
        assert modularity(g, {nid: 0 for nid in g.node_ids}) == 0.0

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            g, edges = random_graph(rng, n)
            comm = [int(c) for c in rng.integers(0, 3, size=n)]
            assign = {f"n{i}": comm[i] for i in range(n)}
            assert modularity(g, assign) == pytest.approx(
                brute_q(n, edges, comm), abs=1e-12)

    def test_invariant_under_relabeling(self):
        g, _ = random_graph(np.random.default_rng(3), 6)
        a = {nid: i % 2 for i, nid in enumerate(g.node_ids)}
        b = {nid: 17 + 5 * c for nid, c in a.items()}   # same blocks, wild ids
        assert modularity(g, a) == pytest.approx(modularity(g, b), abs=1e-12)

    def test_edgeless_raises(self):
        g = SimilarityGraph.from_edges(("a", "b"), [])
        with pytest.raises(ModularityUndefinedError):
            modularity(g, {"a": 0, "b": 1})


# ---------------------------------------------------------------------------
# louvain
# ---------------------------------------------------------------------------

class TestLouvain:
    def test_edgeless_graph_gives_singletons(self):
        g = SimilarityGraph.from_edges(("a", "b", "c"), [])
        p = louvain(g, seed=0)
        assert p.assignment == {"a": 0, "b": 1, "c": 2}
        assert p.modularity == 0.0
        assert p.level_count == 0
        assert set(p.community_labels.values()) == {None}

    def test_two_cliques_with_weak_bridge_recovered(self):
        g = two_cliques_graph()
        for seed in range(5):
            p = louvain(g, seed=seed)
            comms = {frozenset(m) for m in p.communities().values()}
            assert comms == {frozenset(f"n{i}" for i in range(5)),
                             frozenset(f"n{i}" for i in range(5, 10))}

    def test_complete_graph_collapses_to_one_community(self):
        edges = [(i, j, 1.0) for i in range(6) for j in range(i + 1, 6)]
        g = SimilarityGraph.from_edges(tuple(f"n{i}" for i in range(6)), edges)
        p = louvain(g, seed=0)
        assert p.n_communities == 1

    def test_deterministic_for_fixed_seed(self):
        g, _ = random_graph(np.random.default_rng(9), 8)
        a = louvain(g, seed=123)
        b = louvain(g, seed=123)
        assert np.array_equal(a.membership, b.membership)
        assert a.modularity == b.modularity

    def test_near_optimal_on_small_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(4, 8))
            g, edges = random_graph(rng, n)
            best = best_partition_q(n, edges)
            p = louvain(g, seed=0)
            assert p.modularity >= 0.95 * best - 1e-12

    def test_membership_is_canonical(self):
        # multi-level runs included: each level's renumbering composes
        rng = np.random.default_rng(11)
        for seed in range(12):
            g, _ = random_graph(rng, 16, p=0.3)
            p = louvain(g, seed=seed)
            seen = []
            for c in p.membership:
                if c not in seen:
                    seen.append(int(c))
            assert seen == list(range(p.n_communities))

    def test_reported_modularity_matches_formula(self, small_tensor):
        from simnet import WeightVector, build_graph
        g = build_graph(small_tensor, WeightVector.equal(), 0.85)
        p = louvain(g, seed=0)
        assert p.modularity == pytest.approx(
            modularity(g, p.assignment), abs=1e-9)


class TestTrace:
    @pytest.fixture
    def traced(self):
        g, _ = random_graph(np.random.default_rng(5), 12, p=0.4)
        return g, louvain(g, seed=2, track=True)

    def test_untracked_partition_has_no_trace(self):
        g = two_cliques_graph()
        assert louvain(g, seed=0).trace is None

    def test_moves_replay_to_final_membership(self, traced):
        _, p = traced
        for lv in p.trace:
            comm = np.arange(len(lv.final_membership), dtype=np.int64)
            for node, frm, to in lv.moves:
                assert comm[node] == frm
                comm[node] = to
            assert np.array_equal(comm, lv.final_membership)

    def test_each_move_strictly_increases_level_modularity(self, traced):
        _, p = traced
        for lv in p.trace:
            n_lv = len(lv.final_membership)
            comm = np.arange(n_lv, dtype=np.int64)
            q = _q_arrays(n_lv, lv.src, lv.dst, lv.weight, lv.self_weight, comm)
            for node, _, to in lv.moves:
                comm[node] = to
                q_next = _q_arrays(n_lv, lv.src, lv.dst, lv.weight,
                                   lv.self_weight, comm)
                assert q_next > q - 1e-12
                q = q_next

    def test_aggregation_preserves_modularity(self, traced):
        _, p = traced
        for prev, nxt in zip(p.trace, p.trace[1:]):
            n_prev = len(prev.final_membership)
            q_grouped = _q_arrays(n_prev, prev.src, prev.dst, prev.weight,
                                  prev.self_weight, prev.final_membership)
            n_next = len(nxt.final_membership)
            q_supernode = _q_arrays(n_next, nxt.src, nxt.dst, nxt.weight,
                                    nxt.self_weight,
                                    np.arange(n_next, dtype=np.int64))
            assert q_supernode == pytest.approx(q_grouped, abs=1e-9)

    def test_composed_trace_reproduces_partition(self, traced):
        g, p = traced
        memb = np.arange(g.n, dtype=np.int64)
        for lv in p.trace:
            if len(lv.moves):
                memb = _canonical(lv.final_membership)[memb]
        assert np.array_equal(memb, p.membership)
        assert p.modularity == pytest.approx(
            brute_q(g.n, [(int(i), int(j), float(w)) for i, j, w in g.edges()],
                    memb.tolist()),
            abs=1e-9)

    def test_last_level_has_no_moves(self, traced):
        _, p = traced
        assert len(p.trace[-1].moves) == 0
        assert p.level_count == len(p.trace) - 1

    def test_edgeless_graph_traces_one_level_without_moves(self):
        g = SimilarityGraph.from_edges(("a", "b", "c"), [])
        p = louvain(g, seed=0, track=True)
        assert len(p.trace) == 1
        assert len(p.trace[0].moves) == 0
        assert p.trace[0].final_membership.tolist() == [0, 1, 2]
        assert p.level_count == len(p.trace) - 1 == 0
        assert p.modularity == 0.0


class TestKernel:
    """The local-move kernel and its CSR input."""

    # sha256 over membership, modularity and per-level move logs of
    # louvain(track=True) on the 8x50 planted corpus at equal weights,
    # recorded from the numpy-indexed kernel before the kernel ran on
    # Python lists.  The list-fed kernel must reproduce it.
    PARTITION_SHA256 = ("a90c6e0b152b1e92d438b9d5f601db63"
                        "960fbff857bbd0eced3223357d870eb7")

    # The same sha256 over the traffic of the benchmark's sweep: planted
    # corpora 7 and 11, the 16 thresholds 0.80-0.95, three Dirichlet weight
    # vectors and Louvain seeds 0 and 1, recorded from the full-rescan
    # kernel before local moves reused a node's neighbour sums.
    SWEEP_PARTITION_SHA256 = ("4dba32dd8259a8c7e97c9cdedc89e697"
                              "abddf50659642ce1b19304582feff60d")

    @staticmethod
    def _hash_partitions(h, g, seeds):
        for seed in seeds:
            p = louvain(g, seed, track=True)
            h.update(p.membership.astype("<i8").tobytes())
            h.update(struct.pack("<d", p.modularity))
            for lv in p.trace:
                h.update(struct.pack("<q", len(lv.moves)))
                h.update(np.ascontiguousarray(lv.moves, dtype="<i8").tobytes())

    def test_planted_partitions_match_golden(self, planted_tensor):
        from simnet import WeightVector, build_graph
        h = hashlib.sha256()
        for threshold in (0.80, 0.85, 0.90, 0.95):
            g = build_graph(planted_tensor, WeightVector.equal(), threshold)
            self._hash_partitions(h, g, (0, 1, 2, 12345))
        assert h.hexdigest() == self.PARTITION_SHA256

    def test_sweep_traffic_partitions_match_golden(self, planted_tensor):
        from simnet import (WeightVector, build_graph,
                            build_similarity_tensor, generate_planted)
        tensors = (planted_tensor, build_similarity_tensor(
            generate_planted(8, 50, 0.10, seed=11)))
        weights = [WeightVector.from_array(v) for v in
                   np.random.default_rng(2024).dirichlet(np.ones(4), size=3)]
        h = hashlib.sha256()
        for t in tensors:
            for threshold in (p / 100.0 for p in range(80, 96)):
                for w in weights:
                    self._hash_partitions(h, build_graph(t, w, threshold), (0, 1))
        assert h.hexdigest() == self.SWEEP_PARTITION_SHA256

    def test_csr_rows_list_edges_in_edge_order(self):
        g, edges = random_graph(np.random.default_rng(8), 9, p=0.6)
        indptr, indices, weights = _build_csr(g.n, g.src.astype(np.int64),
                                              g.dst.astype(np.int64), g.weight)
        rows = [[] for _ in range(g.n)]
        for i, j, w in g.edges():
            rows[i].append((j, w))
            rows[j].append((i, w))
        for x in range(g.n):
            got = list(zip(indices[indptr[x]:indptr[x + 1]].tolist(),
                           weights[indptr[x]:indptr[x + 1]].tolist()))
            assert got == [(int(y), float(w)) for y, w in rows[x]]


class BoundedLog(list):
    """A move log that fails once it would hold more than `bound` moves."""

    def __init__(self, bound):
        super().__init__()
        self.bound = bound

    def append(self, move):
        if len(self) >= self.bound:
            raise AssertionError(f"kernel made more than {self.bound} moves")
        super().append(move)


def kernel_comm(level, moves):
    """The kernel's communities on one level; its moves go to `moves`."""
    n, src, dst, w, self_w, order = level
    indptr, indices, weights = (a.tolist() for a in _build_csr(n, src, dst, w))
    k = _weighted_degrees(n, src, dst, w, self_w).tolist()
    return _local_moves(indptr, indices, weights, k,
                        float(w.sum() + self_w.sum()), order.tolist(), moves)


@st.composite
def levels(draw):
    """A level as louvain hands it to `_run_level`.

    Covers tied unit weights, isolated nodes (up to three trailing nodes
    get no edge), random self-loop weights and edgeless levels.
    """
    n = draw(st.integers(1, 16))
    n_linked = n - draw(st.integers(0, min(3, n)))
    pairs = [(i, j) for i in range(n_linked) for j in range(i + 1, n_linked)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if draw(st.booleans()):
        w = [1.0] * len(edges)
    else:
        w = draw(st.lists(st.sampled_from((0.25, 0.5, 0.625, 1.0))
                          | st.floats(0.01, 4.0),
                          min_size=len(edges), max_size=len(edges)))
    if draw(st.booleans()):
        self_w = draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))
    else:
        self_w = [0.0] * n
    if not edges and not any(self_w):
        self_w[0] = 1.0   # a level always carries weight (2m > 0)
    order = draw(st.permutations(range(n)))
    as_i64 = lambda xs: np.array(xs, dtype=np.int64).reshape(-1)
    return (n, as_i64([i for i, _ in edges]), as_i64([j for _, j in edges]),
            np.array(w, dtype=np.float64), np.array(self_w, dtype=np.float64),
            as_i64(order))


class TestKernelMatchesFullRescan:
    """`_local_moves` reuses a node's community sums until a neighbour moves;
    it, and `_run_level` with whichever kernel is active, must agree move for
    move with a kernel that rescans on every visit."""

    @given(level=levels())
    @settings(max_examples=400, deadline=None)
    def test_same_partition_and_moves(self, level):
        roomy = 64 * level[0] + 64
        comm, moves, n_moves = full_rescan_level(*level, roomy)
        assert n_moves >= 0
        # a log bounded by the oracle's count first, so a kernel that never
        # settles fails, not hangs
        log = BoundedLog(n_moves)
        assert kernel_comm(level, log) == comm
        assert [v for move in log for v in move] == moves
        got_comm, got_moves = _run_level(*level)
        assert got_comm.dtype == got_moves.dtype == np.int64
        assert got_moves.shape == (n_moves, 3)
        assert got_comm.tolist() == comm
        assert got_moves.ravel().tolist() == moves


# ---------------------------------------------------------------------------
# labeling
# ---------------------------------------------------------------------------

def _mk_sample(sid, family):
    return Sample(id=sid, family=family, api_sequence=("a.b",),
                  permissions=frozenset(), activity_names=frozenset(),
                  file_names=frozenset())


def reference_labels(p, ds, voters):
    """Plurality labels by family name, one community at a time."""
    voter_set = set(voters)
    members = p.communities()
    out = {}
    for c in range(p.n_communities):
        votes = Counter(ds[nid].family for nid in members.get(c, ())
                        if nid in voter_set and ds[nid].family is not None)
        if len(members.get(c, ())) <= 1 or not votes:
            out[c] = None
        else:
            top = max(votes.values())
            out[c] = min(fam for fam, n in votes.items() if n == top)
    return out


def _mk_partition(node_ids, membership):
    memb = np.asarray(membership, dtype=np.int64)
    n_comms = int(memb.max()) + 1
    return Partition(tuple(node_ids), memb, 0.0,
                     np.full(n_comms, -1, dtype=np.int64), 1)


class TestLabelCommunities:
    @pytest.fixture
    def ds(self):
        rows = [("s0", "adware"), ("s1", "adware"), ("s2", "botnet"),
                ("s3", "botnet"), ("s4", "botnet"), ("s5", None),
                ("s6", "adware"), ("s7", "clicker")]
        return Dataset(tuple(_mk_sample(sid, fam) for sid, fam in rows))

    def test_plurality_wins(self, ds):
        p = _mk_partition([s.id for s in ds.samples], [0] * 5 + [1, 1, 1])
        out = label_communities(p, ds)
        # community 0: 2 adware vs 3 botnet; community 1: adware vs clicker tie
        assert out.community_labels[0] == "botnet"

    def test_tie_breaks_to_lexicographically_smallest(self, ds):
        p = _mk_partition([s.id for s in ds.samples], [0] * 5 + [1, 1, 1])
        out = label_communities(p, ds)
        assert out.community_labels[1] == "adware"

    def test_singleton_community_stays_unlabeled(self, ds):
        p = _mk_partition([s.id for s in ds.samples], [0] * 7 + [1])
        out = label_communities(p, ds)
        assert out.community_labels[1] is None

    def test_community_without_voters_stays_unlabeled(self, ds):
        p = _mk_partition([s.id for s in ds.samples], [0] * 5 + [1, 1, 1])
        out = label_communities(p, ds, voters=np.arange(8) < 3)   # s0, s1, s2
        assert out.community_labels[0] == "adware"   # only comm-0 voters count
        assert out.community_labels[1] is None

    def test_unlabeled_samples_never_vote(self, ds):
        # s5 has no family; a community of {s5, s7} must label from s7 alone
        p = _mk_partition([s.id for s in ds.samples], [0] * 5 + [1, 0, 1])
        out = label_communities(p, ds, voters=np.ones(8, dtype=bool))
        assert out.community_labels[1] == "clicker"

    @given(rows=st.lists(st.tuples(st.sampled_from([None, "adware", "botnet", "clicker"]),
                                   st.integers(0, 7), st.booleans()),
                         min_size=1, max_size=16))
    @settings(max_examples=80, deadline=None)
    def test_random_memberships_match_name_reference(self, rows):
        # None families never vote; memberships leave singletons and empty ids
        ds = Dataset(tuple(_mk_sample(f"s{i}", fam) for i, (fam, _, _) in enumerate(rows)))
        p = _mk_partition(ds.ids, [c for _, c, _ in rows])
        mask = np.array([v for _, _, v in rows], dtype=bool)
        voters = [sid for sid, v in zip(ds.ids, mask) if v]
        out = label_communities(p, ds, mask)
        assert out.families == ds.families
        assert out.community_labels == reference_labels(p, ds, voters)
        assert (label_communities(p, ds).community_labels
                == reference_labels(p, ds, ds.ids))

    def test_partition_out_of_dataset_order_raises(self, ds):
        p = _mk_partition([s.id for s in reversed(ds.samples)], [0] * 8)
        with pytest.raises(ValueError, match="dataset order"):
            label_communities(p, ds)

    def test_original_partition_untouched(self, ds):
        p = _mk_partition([s.id for s in ds.samples], [0] * 8)
        label_communities(p, ds)
        assert set(p.community_labels.values()) == {None}

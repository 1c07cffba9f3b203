import numpy as np
import pytest

from simnet import (SimilarityGraph, SimilarityTensor, WeightVector,
                    build_graph, final_similarity)
from simnet.community import cluster
from simnet.evaluation import report_from_partition


@pytest.fixture
def three_node_tensor():
    # same pairs (0, 1), (0, 2), (1, 2) for every feature, so FS equals them
    # under any simplex weights
    v = np.array([0.95, 0.85, 0.40])
    return SimilarityTensor(("x", "y", "z"), v, v.copy(), v.copy(), v.copy())


class TestBuildGraph:
    def test_three_node_fixture_single_edge(self, three_node_tensor):
        g = build_graph(three_node_tensor, WeightVector.equal(), 0.9)
        assert g.edge_count == 1
        assert list(g.edges()) == [(0, 1, 0.95)]

    def test_threshold_one_gives_no_edges(self, three_node_tensor):
        g = build_graph(three_node_tensor, WeightVector.equal(), 1.0)
        assert g.edge_count == 0
        assert g.n == 3

    def test_threshold_zero_all_ones_is_complete(self):
        t = SimilarityTensor(tuple("abcd"), *(np.ones(6) for _ in range(4)))
        g = build_graph(t, WeightVector.equal(), 0.0)
        assert g.edge_count == 6
        assert (g.weight == 1.0).all()

    def test_strictly_greater_excludes_threshold_ties(self, three_node_tensor):
        g = build_graph(three_node_tensor, WeightVector.equal(), 0.95)
        assert g.edge_count == 0

    def test_edge_weights_equal_final_similarity_bit_for_bit(self, small_tensor):
        w = WeightVector(0.4, 0.2, 0.2, 0.2)
        g = build_graph(small_tensor, w, 0.7)
        assert g.edge_count > 0
        for i, j, weight in g.edges():
            assert weight == final_similarity(small_tensor, w, i, j)

    def test_node_count_independent_of_threshold(self, small_tensor):
        for th in (0.0, 0.5, 0.99, 1.0):
            assert build_graph(small_tensor, WeightVector.equal(), th).n == small_tensor.n

    def test_monotone_edge_containment(self, small_tensor):
        w = WeightVector.equal()
        prev = None
        for th in (0.80, 0.85, 0.90, 0.95):
            edges = {(i, j) for i, j, _ in build_graph(small_tensor, w, th).edges()}
            if prev is not None:
                assert edges <= prev
            prev = edges

    def test_deterministic(self, small_tensor):
        a = build_graph(small_tensor, WeightVector.equal(), 0.8)
        b = build_graph(small_tensor, WeightVector.equal(), 0.8)
        assert np.array_equal(a.src, b.src)
        assert np.array_equal(a.dst, b.dst)
        assert np.array_equal(a.weight, b.weight)

    def test_threshold_validated(self, three_node_tensor):
        with pytest.raises(ValueError):
            build_graph(three_node_tensor, WeightVector.equal(), 1.5)


class TestFromEdges:
    def test_accepts_unordered_pairs(self):
        g = SimilarityGraph.from_edges(("a", "b", "c"), [(2, 0, 0.5)])
        assert list(g.edges()) == [(0, 2, 0.5)]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            SimilarityGraph.from_edges(("a",), [(0, 0, 0.5)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            SimilarityGraph.from_edges(("a", "b"), [(0, 1, 0.5), (1, 0, 0.4)])

    def test_rejects_weight_at_or_below_threshold(self):
        with pytest.raises(ValueError):
            SimilarityGraph.from_edges(("a", "b"), [(0, 1, 0.5)], threshold=0.5)


class TestDegreeReport:
    def test_complete_graph_has_no_isolates(self):
        g = SimilarityGraph.from_edges(
            tuple("abc"), [(0, 1, 0.9), (0, 2, 0.9), (1, 2, 0.9)])
        assert g.degrees().tolist() == [2, 2, 2]

    def test_threshold_one_isolates_everything(self, three_node_tensor):
        g = build_graph(three_node_tensor, WeightVector.equal(), 1.0)
        assert g.degrees().tolist() == [0, 0, 0]

    def test_isolates_match_brute_force_over_tensor(self, small_ds, small_tensor):
        w = WeightVector.equal()
        th = 0.9
        g, p = cluster(small_tensor, small_ds, w, th, seed=0)
        n = small_tensor.n
        expected = tuple(small_tensor.sample_order[i] for i in range(n)
                         if not any(final_similarity(small_tensor, w, i, j) > th
                                    for j in range(n) if j != i))
        assert report_from_partition(g, p, small_ds).no_connection_ids == expected

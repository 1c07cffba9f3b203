"""Acceptance gate: nine end-to-end checks with pinned seeds and budgets.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Numeric tolerances are pinned inline; everything else is
exact.  The final check needs a real corpus on disk and skips unless
``SIMNET_CORPUS`` points at one.
"""

import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from nilsimsa_oracle import ReferenceNilsimsa
from simnet import (OptimizerConfig, SimilarityGraph, WeightVector,
                    build_graph, build_similarity_tensor, classify,
                    derive_seed, jaccard, kfold_crossval, load_dataset,
                    louvain, modularity, nilsimsa_compare, nilsimsa_digest,
                    optimize_weights, save_dataset, threshold_sweep)
from simnet.cli import main
from simnet.community import _q_arrays
from test_community import best_partition_q, brute_q, two_cliques_graph

THRESHOLD = 0.90
ITERATIONS = 1000
LEARNING_RATE = 0.05
OPT_SEED = 0


@pytest.fixture(scope="module")
def learned(planted_ds, planted_tensor):
    """The canonical end-to-end run: 1,000-iteration weight search plus
    5-fold stratified cross-validation, timed as one budget."""
    cfg = OptimizerConfig(iterations=ITERATIONS, learning_rate=LEARNING_RATE,
                          threshold=THRESHOLD, seed=OPT_SEED)
    start = time.perf_counter()
    trace = optimize_weights(planted_tensor, planted_ds, cfg)
    cv = kfold_crossval(planted_ds, 5, cfg, tensor=planted_tensor)
    elapsed = time.perf_counter() - start
    return trace, cv, elapsed


def test_criterion_1_nilsimsa_matches_independent_reference():
    start = time.perf_counter()
    rng = random.Random(20260826)
    digests = []
    for _ in range(110):
        data = rng.randbytes(rng.randrange(0, 2001))
        ours = nilsimsa_digest(data)
        assert ours.bits == ReferenceNilsimsa(data).digest()
        digests.append(ours)
    for a, b in zip(digests[::2], digests[1::2]):
        bitdiff = sum(bin(x ^ y).count("1") for x, y in zip(a.bits, b.bits))
        assert nilsimsa_compare(a, b) == 128 - bitdiff
    assert time.perf_counter() - start < 5.0


def test_criterion_2_jaccard_exact_on_every_subset_pair():
    start = time.perf_counter()
    universe = ["a", "b", "c", "d", "e"]
    subsets = [frozenset(universe[i] for i in range(5) if mask >> i & 1)
               for mask in range(32)]
    checked = 0
    for sa in subsets:
        for sb in subsets:
            if not sa and not sb:
                expected = 1.0
            elif not sa or not sb:
                expected = 0.0
            else:
                expected = len(sa & sb) / len(sa | sb)
            assert jaccard(sa, sb) == expected
            checked += 1
    assert checked == 1024
    assert time.perf_counter() - start < 1.0


def _two_block_graph(rng, n):
    """Random weighted graph with two planted blocks.

    The near-optimality bound needs graphs whose maximum is well-posed:
    on pure noise graphs the exhaustive optimum sits near zero and any
    greedy heuristic misses a multiplicative bound by vanishing absolute
    amounts, so structure is planted and weights stay random.
    """
    split = n // 2
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            same = (i < split) == (j < split)
            if same and rng.random() < 0.9:
                edges.append((i, j, round(float(rng.uniform(0.7, 1.0)), 3)))
            elif not same and rng.random() < 0.25:
                edges.append((i, j, round(float(rng.uniform(0.05, 0.30)), 3)))
    if not edges:
        edges.append((0, 1, 0.8))
    ids = tuple(f"n{i}" for i in range(n))
    return SimilarityGraph.from_edges(ids, edges), edges


def test_criterion_3_louvain_near_optimal_and_modularity_exact():
    start = time.perf_counter()
    rng = np.random.default_rng(31337)
    for trial in range(50):
        n = int(rng.integers(4, 9))
        g, edges = _two_block_graph(rng, n)
        p = louvain(g, seed=trial)
        best = best_partition_q(n, edges)
        assert p.modularity >= 0.95 * best - 1e-12
        memb = [int(c) for c in p.membership]
        assert abs(p.modularity - brute_q(n, edges, memb)) <= 1e-9
        assert abs(modularity(g, p.assignment) - brute_q(n, edges, memb)) <= 1e-9
    assert time.perf_counter() - start < 30.0


def test_criterion_4_weak_bridge_never_merges_cliques():
    g = two_cliques_graph(bridge=0.01)
    want = {frozenset(f"n{i}" for i in range(5)),
            frozenset(f"n{i}" for i in range(5, 10))}
    for seed in range(20):
        p = louvain(g, seed=seed)
        assert {frozenset(m) for m in p.communities().values()} == want, seed


def test_criterion_5_monotonicity_suite(planted_ds, planted_tensor, learned):
    trace, _, _ = learned

    # (a) modularity never decreases across accepted moves or level jumps
    g = build_graph(planted_tensor, WeightVector.equal(), THRESHOLD)
    p = louvain(g, seed=0, track=True)
    prev_q = None
    for lv in p.trace:
        n_lv = len(lv.final_membership)
        comm = np.arange(n_lv, dtype=np.int64)
        q = _q_arrays(n_lv, lv.src, lv.dst, lv.weight, lv.self_weight, comm)
        if prev_q is not None:          # aggregation must not lose quality
            assert q >= prev_q - 1e-9
        for node, _, to in lv.moves:
            comm[node] = to
            q_next = _q_arrays(n_lv, lv.src, lv.dst, lv.weight,
                               lv.self_weight, comm)
            assert q_next >= q - 1e-9
            q = q_next
        prev_q = q

    # (b) greedy search: best error non-increasing over 1,000 iterations
    best = trace.history[0].error
    for entry in trace.history[1:]:
        assert entry.accepted == (entry.error < best)
        if entry.accepted:
            best = entry.error
    assert trace.best_error == best == min(e.error for e in trace.history)

    # (c) raising the threshold only ever removes edges
    for w in (WeightVector.equal(), trace.best_weights):
        edge_sets = [
            {(i, j) for i, j, _ in build_graph(planted_tensor, w, th).edges()}
            for th in (0.80, 0.85, 0.90, 0.95)]
        for loose, tight in zip(edge_sets, edge_sets[1:]):
            assert tight <= loose


def test_criterion_6_planted_families_recovered_within_budget(
        planted_ds, planted_tensor, learned):
    trace, cv, elapsed = learned
    assert 1.0 - trace.best_error >= 0.95
    rep = classify(planted_tensor, planted_ds, trace.best_weights, THRESHOLD,
                   derive_seed(OPT_SEED, 5))
    assert rep.accuracy >= 0.95
    assert cv.mean_prediction_accuracy >= 0.90
    assert elapsed < 120.0


def test_criterion_7_sweep_argmax_beats_tightest_threshold(planted_ds,
                                                           planted_tensor):
    cfg = OptimizerConfig(iterations=200, learning_rate=LEARNING_RATE,
                          seed=OPT_SEED)
    thresholds = [pct / 100.0 for pct in range(80, 96)]
    rep = threshold_sweep(planted_tensor, planted_ds, cfg, thresholds)
    assert [p.threshold for p in rep.points] == thresholds
    assert len(rep.points) == 16
    by_th = {p.threshold: p.accuracy for p in rep.points}
    assert by_th[rep.best_threshold] == max(by_th.values())
    assert by_th[rep.best_threshold] > by_th[0.95]


def test_criterion_8_pipeline_reruns_byte_identical(planted_ds, tmp_path):
    data = tmp_path / "planted.jsonl"
    save_dataset(planted_ds, data)
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        assert main(["pipeline", "--dataset", str(data), "--threshold", "90",
                     "--iterations", "150", "--lr", str(LEARNING_RATE),
                     "--seed", str(OPT_SEED), "--out", str(out),
                     "--cache", str(tmp_path / "tensor.cache")]) == 0
    names = ("report.json", "report.txt", "trace.jsonl", "graph.json",
             "graph.dot")
    for name in names:
        assert ((outs[0] / name).read_bytes()
                == (outs[1] / name).read_bytes()), name


def test_criterion_9_real_corpus_when_supplied(tmp_path):
    corpus = os.environ.get("SIMNET_CORPUS")
    if not corpus:
        pytest.skip("SIMNET_CORPUS not set; no real corpus on this machine")
    ds = load_dataset(Path(corpus))
    t = build_similarity_tensor(ds)
    cfg = OptimizerConfig(iterations=ITERATIONS, learning_rate=LEARNING_RATE,
                          threshold=THRESHOLD, seed=OPT_SEED)
    trace = optimize_weights(t, ds, cfg)
    w = trace.best_weights.as_array()
    assert (w >= 0.0).all() and abs(w.sum() - 1.0) <= 1e-9
    rep = classify(t, ds, trace.best_weights, THRESHOLD,
                   derive_seed(OPT_SEED, 5))
    assert 0.0 <= rep.accuracy <= 1.0
    # reported for side-by-side comparison; no tolerance is asserted
    print(f"corpus accuracy {rep.accuracy:.4f}  "
          f"weights {trace.best_weights.as_dict()}")

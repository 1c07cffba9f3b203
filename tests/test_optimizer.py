import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simnet.optimizer
import simnet.similarity as sim
from simnet import (Dataset, NoLabeledSamplesError, OptimizerConfig, Sample,
                    WeightVector, build_similarity_tensor, clustering_error,
                    derive_seed, generate_planted, optimize_weights,
                    propose_weights, threshold_sweep)


def _sample(sid, family, seq, perms=(), acts=(), files=()):
    return Sample(id=sid, family=family, api_sequence=tuple(seq),
                  permissions=frozenset(perms), activity_names=frozenset(acts),
                  file_names=frozenset(files))


@pytest.fixture(scope="module")
def odd_one_out():
    """Hand-traceable dataset: 11 clones plus one famA sample that shares
    api calls with its family but has disjoint sets.

    With equal weights its fused similarity to everyone is 0.25 (api 1.0,
    sets 0.0), below any threshold >= 0.8, so it isolates, lands in a
    singleton community, and is the single unavoidable error.
    """
    seq_a = [f"a.call{i}" for i in range(60)]
    seq_b = [f"b.call{i}" for i in range(60)]
    sets_a = dict(perms=["p1", "p2"], acts=["ui.A"], files=["f/a.bin"])
    sets_b = dict(perms=["p9"], acts=["ui.B"], files=["f/b.bin"])
    rows = [_sample(f"a{i}", "famA", seq_a, **sets_a) for i in range(5)]
    rows.append(_sample("a5", "famA", seq_a,
                        perms=["q1"], acts=["ui.Q"], files=["f/q.bin"]))
    rows += [_sample(f"b{i}", "famB", seq_b, **sets_b) for i in range(6)]
    ds = Dataset(tuple(rows))
    return ds, build_similarity_tensor(ds)


class TestClusteringError:
    def test_mutation_free_dataset_is_perfect(self):
        ds = generate_planted(3, 8, 0.0, seed=1)
        t = build_similarity_tensor(ds)
        assert clustering_error(t, ds, WeightVector.equal(), 0.9, seed=0) == 0.0

    def test_threshold_one_isolates_everyone(self, small_ds, small_tensor):
        err = clustering_error(small_tensor, small_ds, WeightVector.equal(),
                               1.0, seed=0)
        assert err == 1.0

    def test_odd_one_out_error_is_one_twelfth(self, odd_one_out):
        ds, t = odd_one_out
        for seed in (0, 1, 7):
            err = clustering_error(t, ds, WeightVector.equal(), 0.8, seed=seed)
            assert err == 1.0 - 11 / 12

    def test_mismatched_order_rejected(self, small_ds, small_tensor):
        reordered = Dataset(tuple(reversed(small_ds.samples)))
        with pytest.raises(ValueError, match="sample_order"):
            clustering_error(small_tensor, reordered, WeightVector.equal(),
                             0.9, seed=0)

    def test_no_labels_raises(self):
        rows = tuple(_sample(f"s{i}", None, [f"x.y{i}"]) for i in range(3))
        ds = Dataset(rows)
        t = build_similarity_tensor(ds)
        with pytest.raises(NoLabeledSamplesError):
            clustering_error(t, ds, WeightVector.equal(), 0.9, seed=0)

    def test_no_feature_work_during_scoring(self, small_ds, small_tensor,
                                            monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("raw-feature work during scoring")

        # patch every simnet module that holds one of these names
        for mod in [m for k, m in sys.modules.items() if k.startswith("simnet")]:
            for name in ("_digest_bits", "_jaccard_matrix", "build_similarity_tensor"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, forbidden)
        with pytest.raises(AssertionError, match="raw-feature"):
            sim._digest_rows(small_ds)  # the guard is live
        clustering_error(small_tensor, small_ds, WeightVector.equal(), 0.85,
                         seed=3)


class TestProposeWeights:
    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
           st.floats(0.01, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_stays_on_simplex(self, seed, raw, step):
        base = WeightVector.from_array(np.array(raw) / np.sum(raw))
        out = propose_weights(np.random.default_rng(seed), base, step)
        arr = out.as_array()
        assert (arr >= 0.0).all()
        assert np.sum(arr) == pytest.approx(1.0, abs=1e-9)

    def test_changes_exactly_one_raw_coordinate(self):
        rng = np.random.default_rng(0)
        base = WeightVector.equal()
        out = propose_weights(rng, base, 0.05)
        # renormalization shifts all four, but the perturbed one moves most
        delta = np.abs(out.as_array() - base.as_array())
        assert np.count_nonzero(delta > 1e-12) == 4
        assert delta.max() > 0.03

    def test_all_coordinates_and_signs_reachable(self):
        rng = np.random.default_rng(1)
        seen = set()
        base = WeightVector.equal()
        for _ in range(200):
            out = propose_weights(rng, base, 0.1)
            delta = out.as_array() - base.as_array()
            coord = int(np.abs(delta).argmax())
            seen.add((coord, delta[coord] > 0))
        assert seen == {(c, s) for c in range(4) for s in (True, False)}

    def test_clamps_at_zero(self):
        base = WeightVector(0.01, 0.33, 0.33, 0.33)
        for seed in range(50):
            out = propose_weights(np.random.default_rng(seed), base, 0.5)
            assert (out.as_array() >= 0.0).all()


@pytest.fixture(scope="module")
def run(small_ds, small_tensor, fast_cfg):
    return optimize_weights(small_tensor, small_ds, fast_cfg)


class TestOptimizeWeights:
    def test_history_length_is_iterations_plus_baseline(self, run, fast_cfg):
        assert len(run.history) == fast_cfg.iterations + 1
        assert [e.iteration for e in run.history] == list(
            range(fast_cfg.iterations + 1))

    def test_baseline_entry_is_initial_weights(self, run, fast_cfg):
        first = run.history[0]
        assert first.weights == WeightVector.equal()
        assert first.accepted

    def test_best_error_is_running_minimum_of_accepted(self, run):
        best = run.history[0].error
        for entry in run.history[1:]:
            assert entry.accepted == (entry.error < best)
            if entry.accepted:
                best = entry.error
        assert run.best_error == best

    def test_best_weights_match_last_accepted_entry(self, run):
        accepted = [e for e in run.history if e.accepted]
        assert run.best_weights == accepted[-1].weights

    def test_deterministic(self, small_ds, small_tensor, fast_cfg):
        a = optimize_weights(small_tensor, small_ds, fast_cfg)
        b = optimize_weights(small_tensor, small_ds, fast_cfg)
        assert a.history == b.history

    def test_seed_changes_the_search(self, small_ds, small_tensor, fast_cfg):
        from dataclasses import replace
        a = optimize_weights(small_tensor, small_ds, fast_cfg)
        b = optimize_weights(small_tensor, small_ds, replace(fast_cfg, seed=99))
        assert [e.weights for e in a.history] != [e.weights for e in b.history]

    def test_single_iteration_runs(self, small_ds, small_tensor):
        cfg = OptimizerConfig(iterations=1, learning_rate=0.05,
                              threshold=0.85, seed=0)
        trace = optimize_weights(small_tensor, small_ds, cfg)
        assert len(trace.history) == 2

    def test_downweights_a_noise_feature(self):
        # file_names replaced by per-sample junk: pure noise, no family signal
        base = generate_planted(6, 30, 0.10, seed=11)
        rows = tuple(
            Sample(id=s.id, family=s.family, api_sequence=s.api_sequence,
                   permissions=s.permissions, activity_names=s.activity_names,
                   file_names=frozenset(f"junk/{s.id}/{i}" for i in range(12)))
            for s in base.samples)
        ds = Dataset(rows)
        t = build_similarity_tensor(ds)
        cfg = OptimizerConfig(iterations=120, learning_rate=0.05,
                              threshold=0.68, seed=4)
        baseline = clustering_error(t, ds, WeightVector.equal(), 0.68,
                                    derive_seed(4, 0))
        trace = optimize_weights(t, ds, cfg)
        assert baseline > 0.05          # equal weights genuinely hurt here
        assert trace.best_error < baseline
        assert trace.best_weights.w_file < 0.25


def _count_cluster_calls(monkeypatch):
    """Patch the optimizer's cluster with a counting wrapper; returns the count."""
    calls = [0]
    real = simnet.optimizer.cluster

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(simnet.optimizer, "cluster", counting)
    return calls


class TestStopAtZero:
    # corpus 7 at 0.90, seed 0: first zero error at iteration 38
    CFG = OptimizerConfig(iterations=60, learning_rate=0.05, threshold=0.90,
                          seed=0)
    FIRST_ZERO = 38

    @pytest.fixture(scope="class")
    def full(self, planted_ds, planted_tensor):
        return optimize_weights(planted_tensor, planted_ds, self.CFG)

    def test_full_search_reaches_zero_at_iteration_38(self, full):
        errors = [e.error for e in full.history]
        assert len(full.history) == self.CFG.iterations + 1
        assert errors.index(0.0) == self.FIRST_ZERO

    def test_stopped_search_keeps_result_and_history_prefix(
            self, planted_ds, planted_tensor, full, monkeypatch):
        calls = _count_cluster_calls(monkeypatch)
        stopped = optimize_weights(planted_tensor, planted_ds, self.CFG,
                                   stop_at_zero=True)
        assert stopped.best_weights == full.best_weights
        assert stopped.best_error == full.best_error == 0.0
        assert stopped.history == full.history[:self.FIRST_ZERO + 1]
        assert calls[0] == self.FIRST_ZERO + 1   # nothing scored after it

    @pytest.mark.parametrize("threshold", [0.90, 0.95])
    def test_search_that_never_reaches_zero_runs_every_iteration(
            self, small_ds, small_tensor, threshold):
        cfg = OptimizerConfig(iterations=25, learning_rate=0.05,
                              threshold=threshold, seed=2)
        full = optimize_weights(small_tensor, small_ds, cfg)
        stopped = optimize_weights(small_tensor, small_ds, cfg,
                                   stop_at_zero=True)
        assert stopped.best_error > 0.0
        assert len(stopped.history) == cfg.iterations + 1
        assert stopped == full

    def test_sweep_equals_full_search_per_threshold(self, small_ds,
                                                    small_tensor, monkeypatch):
        # 0.85 is at zero error from iteration 0, 0.90 never gets there
        from dataclasses import replace
        cfg = OptimizerConfig(iterations=25, learning_rate=0.05, seed=2)
        ths = [0.85, 0.90]
        full = [optimize_weights(small_tensor, small_ds,
                                 replace(cfg, threshold=th)) for th in ths]
        calls = _count_cluster_calls(monkeypatch)
        rep = threshold_sweep(small_tensor, small_ds, cfg, ths)
        assert calls[0] == 1 + (cfg.iterations + 1)
        assert [(p.threshold, p.best_weights, p.accuracy) for p in rep.points] \
            == [(th, tr.best_weights, 1.0 - tr.best_error)
                for th, tr in zip(ths, full)]
        assert rep.best_threshold == 0.85


class TestDeriveSeed:
    def test_deterministic_and_order_sensitive(self):
        assert derive_seed(1, 2) == derive_seed(1, 2)
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_negative_parts_fold_into_range(self):
        assert derive_seed(-1) == derive_seed(2 ** 64 - 1)

    def test_output_fits_numpy_seeding(self):
        s = derive_seed(123, 456, 789)
        assert 0 <= s < 2 ** 64


class TestThresholdSweep:
    def test_single_point_matches_direct_run(self, small_ds, small_tensor,
                                             fast_cfg):
        from dataclasses import replace
        rep = threshold_sweep(small_tensor, small_ds, fast_cfg, [0.85])
        direct = optimize_weights(small_tensor, small_ds,
                                  replace(fast_cfg, threshold=0.85))
        point = rep.points[0]
        assert point.threshold == 0.85
        assert point.best_weights == direct.best_weights
        assert point.accuracy == 1.0 - direct.best_error
        assert rep.best_threshold == 0.85

    def test_all_requested_points_present_in_order(self, small_ds,
                                                   small_tensor, fast_cfg):
        ths = [0.80, 0.85, 0.90]
        rep = threshold_sweep(small_tensor, small_ds, fast_cfg, ths)
        assert [p.threshold for p in rep.points] == ths

    def test_threshold_one_point_scores_zero(self, small_ds, small_tensor):
        cfg = OptimizerConfig(iterations=2, learning_rate=0.05,
                              threshold=0.85, seed=0)
        rep = threshold_sweep(small_tensor, small_ds, cfg, [1.0])
        assert rep.points[0].accuracy == 0.0

    def test_best_threshold_is_argmax(self, small_ds, small_tensor):
        cfg = OptimizerConfig(iterations=2, learning_rate=0.05,
                              threshold=0.85, seed=0)
        rep = threshold_sweep(small_tensor, small_ds, cfg, [0.85, 1.0])
        accs = [p.accuracy for p in rep.points]
        assert rep.best_threshold == rep.points[int(np.argmax(accs))].threshold
        assert rep.best_threshold == 0.85

    def test_empty_thresholds_rejected(self, small_ds, small_tensor, fast_cfg):
        with pytest.raises(ValueError):
            threshold_sweep(small_tensor, small_ds, fast_cfg, [])

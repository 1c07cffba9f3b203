from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import simnet.community
from simnet import (Dataset, OptimizerConfig, Sample, StratificationError,
                    WeightVector, build_graph, build_similarity_tensor,
                    classify, clustering_error, generate_planted,
                    kfold_crossval, label_communities, louvain,
                    report_from_partition, stratified_folds, unlabeled_report)
from simnet.community import Partition
from simnet.evaluation import UNLABELED


def _sample(sid, family, seq, perms=(), acts=(), files=()):
    return Sample(id=sid, family=family, api_sequence=tuple(seq),
                  permissions=frozenset(perms), activity_names=frozenset(acts),
                  file_names=frozenset(files))


@pytest.fixture(scope="module")
def clean_ds():
    ds = generate_planted(3, 8, 0.0, seed=1)
    return ds, build_similarity_tensor(ds)


@pytest.fixture(scope="module")
def odd_report():
    """Same hand-traceable layout as the optimizer tests: 11 clones plus
    one famA member whose sets are disjoint from everyone, which isolates
    at threshold 0.8 and must land in the Unlabeled column."""
    seq_a = [f"a.call{i}" for i in range(60)]
    seq_b = [f"b.call{i}" for i in range(60)]
    sets_a = dict(perms=["p1", "p2"], acts=["ui.A"], files=["f/a.bin"])
    sets_b = dict(perms=["p9"], acts=["ui.B"], files=["f/b.bin"])
    rows = [_sample(f"a{i}", "famA", seq_a, **sets_a) for i in range(5)]
    rows.append(_sample("a5", "famA", seq_a,
                        perms=["q1"], acts=["ui.Q"], files=["f/q.bin"]))
    rows += [_sample(f"b{i}", "famB", seq_b, **sets_b) for i in range(6)]
    ds = Dataset(tuple(rows))
    t = build_similarity_tensor(ds)
    return ds, classify(t, ds, WeightVector.equal(), 0.8, seed=0)


# ---------------------------------------------------------------------------
# name-based reference scorers: one sample at a time, through family names
# ---------------------------------------------------------------------------

def reference_correct(p, ds, sample_ids):
    row = {nid: i for i, nid in enumerate(p.node_ids)}
    labels = p.community_labels
    correct = 0
    for nid in sample_ids:
        lab = labels[int(p.membership[row[nid]])]
        if lab == ds[nid].family:
            correct += 1
    return correct


def reference_report(p, ds):
    families = ds.families
    columns = families + (UNLABELED,)
    col_idx = {c: j for j, c in enumerate(columns)}
    row_idx = {f: i for i, f in enumerate(families)}
    confusion = np.zeros((len(families), len(columns)), dtype=np.int64)
    row = {nid: i for i, nid in enumerate(p.node_ids)}
    labels = p.community_labels
    predictions, error_ids = {}, []
    for nid in ds.labeled_ids:
        fam = ds[nid].family
        lab = labels[int(p.membership[row[nid]])]
        pred = lab if lab is not None else UNLABELED
        predictions[nid] = pred
        confusion[row_idx[fam], col_idx[pred]] += 1
        if pred != fam:
            error_ids.append(nid)
    return confusion, predictions, tuple(error_ids)


@pytest.fixture(scope="module")
def parity_base():
    ds = generate_planted(3, 6, 0.10, seed=4)
    return ds, build_similarity_tensor(ds)


class TestClassify:
    def test_mutation_free_dataset_diagonal_confusion(self, clean_ds):
        ds, t = clean_ds
        rep = classify(t, ds, WeightVector.equal(), 0.9, seed=0)
        assert rep.accuracy == 1.0
        assert rep.unlabeled_count == 0
        assert rep.error_ids == ()
        expected = np.zeros((3, 4), dtype=np.int64)
        np.fill_diagonal(expected, 8)
        assert np.array_equal(rep.confusion, expected)

    def test_threshold_one_everything_unlabeled(self, clean_ds):
        ds, t = clean_ds
        rep = classify(t, ds, WeightVector.equal(), 1.0, seed=0)
        assert rep.accuracy == 0.0
        assert rep.unlabeled_count == len(ds)
        assert set(rep.predictions.values()) == {UNLABELED}
        assert rep.no_connection_ids == ds.ids

    def test_odd_one_out_report_cell_by_cell(self, odd_report):
        ds, rep = odd_report
        assert rep.families == ("famA", "famB")
        assert rep.columns == ("famA", "famB", UNLABELED)
        assert rep.confusion_dict() == {
            "famA": {"famA": 5, "famB": 0, UNLABELED: 1},
            "famB": {"famA": 0, "famB": 6, UNLABELED: 0},
        }
        assert rep.accuracy == 11 / 12
        assert rep.error_ids == ("a5",)
        assert rep.predictions["a5"] == UNLABELED
        assert rep.no_connection_ids == ("a5",)
        assert rep.unlabeled_count == 1

    def test_confusion_rows_sum_to_census(self, planted_ds, planted_tensor):
        rep = classify(planted_tensor, planted_ds, WeightVector.equal(), 0.9,
                       seed=0)
        census = planted_ds.label_census()
        for i, fam in enumerate(rep.families):
            assert int(rep.confusion[i].sum()) == census[fam]

    def test_accuracy_complements_clustering_error_exactly(
            self, planted_ds, planted_tensor):
        for th in (0.85, 0.90, 0.95):
            rep = classify(planted_tensor, planted_ds, WeightVector.equal(),
                           th, seed=5)
            err = clustering_error(planted_tensor, planted_ds,
                                   WeightVector.equal(), th, seed=5)
            assert rep.accuracy + err == 1.0

    def test_report_rejects_partition_out_of_dataset_order(self, clean_ds):
        ds, t = clean_ds
        g = build_graph(t, WeightVector.equal(), 0.9)
        p = label_communities(louvain(g, 0), ds, ds.labeled_ids)
        assert report_from_partition(g, p, ds).accuracy == 1.0
        with pytest.raises(ValueError, match="dataset order"):
            report_from_partition(g, p, Dataset(tuple(reversed(ds.samples))))

    def test_report_rejects_partition_labeled_with_other_families(self, clean_ds):
        ds, t = clean_ds
        g = build_graph(t, WeightVector.equal(), 0.9)
        p = label_communities(louvain(g, 0), ds, ds.labeled_ids)
        renamed = Dataset(tuple(replace(s, family="x" + s.family)
                                for s in ds.samples))
        with pytest.raises(ValueError, match="families"):
            report_from_partition(g, p, renamed)

    @given(rows=st.lists(st.tuples(st.sampled_from([None, "famA", "famB", "famC"]),
                                   st.integers(0, 9), st.booleans()),
                         min_size=18, max_size=18))
    @settings(max_examples=40, deadline=None)
    def test_scorers_match_name_based_reference(self, parity_base, rows):
        """Random memberships stand in for Louvain; every scorer must agree
        with the name-based loops: unlabeled samples, singletons, empty
        community ids and voter subsets included."""
        base, t = parity_base
        ds = Dataset(tuple(replace(s, family=fam)
                           for s, (fam, _, _) in zip(base.samples, rows)))
        census = ds.label_census()
        assume(census and min(census.values()) >= 2)
        comm = dict(zip(ds.ids, (c for _, c, _ in rows)))

        def fixed_louvain(g, seed):
            memb = np.array([comm[nid] for nid in g.node_ids], dtype=np.int64)
            return Partition(g.node_ids, memb, 0.0,
                             np.full(int(memb.max()) + 1, -1, dtype=np.int64), 1)

        g = build_graph(t, WeightVector.equal(), 0.9)
        subset = [sid for sid, (_, _, v) in zip(ds.ids, rows) if v]
        cfg = OptimizerConfig(iterations=1, threshold=0.9, seed=0)
        with mock.patch.object(simnet.community, "louvain", fixed_louvain):
            for voters in (ds.labeled_ids, subset):
                p = label_communities(fixed_louvain(g, 0), ds, voters)
                rep = report_from_partition(g, p, ds)
                confusion, predictions, error_ids = reference_report(p, ds)
                assert np.array_equal(rep.confusion, confusion)
                assert rep.predictions == predictions
                assert rep.error_ids == error_ids
                assert rep.unlabeled_count == int(confusion[:, -1].sum())
                assert rep.accuracy == (reference_correct(p, ds, ds.labeled_ids)
                                        / len(ds.labeled_ids))

            p = label_communities(fixed_louvain(g, 0), ds, ds.labeled_ids)
            want = 1.0 - reference_correct(p, ds, ds.labeled_ids) / len(ds.labeled_ids)
            assert clustering_error(t, ds, WeightVector.equal(), 0.9, 0) == want

            cv = kfold_crossval(ds, 2, cfg, tensor=t)
            for fold, test_ids in zip(cv.per_fold, stratified_folds(ds, 2, cfg.seed)):
                voters = [sid for sid in ds.labeled_ids if sid not in test_ids]
                p = label_communities(fixed_louvain(g, 0), ds, voters)
                assert fold.prediction_accuracy == (
                    reference_correct(p, ds, test_ids) / len(test_ids))

    def test_report_echoes_run_parameters(self, clean_ds):
        ds, t = clean_ds
        w = WeightVector(0.4, 0.3, 0.2, 0.1)
        rep = classify(t, ds, w, 0.88, seed=0)
        assert rep.weights == w
        assert rep.threshold == 0.88


class TestStratifiedFolds:
    def test_disjoint_and_covering(self, planted_ds):
        folds = stratified_folds(planted_ds, 5, seed=0)
        flat = [sid for fold in folds for sid in fold]
        assert len(flat) == len(set(flat)) == len(planted_ds.labeled_ids)
        assert set(flat) == set(planted_ds.labeled_ids)

    def test_eight_by_fifty_gives_eighty_per_fold(self, planted_ds):
        folds = stratified_folds(planted_ds, 5, seed=0)
        assert [len(f) for f in folds] == [80] * 5
        for fold in folds:
            per_fam = {}
            for sid in fold:
                fam = planted_ds[sid].family
                per_fam[fam] = per_fam.get(fam, 0) + 1
            assert set(per_fam.values()) == {10}

    def test_family_counts_differ_by_at_most_one(self):
        ds = generate_planted(3, 11, 0.05, seed=2)
        folds = stratified_folds(ds, 4, seed=1)
        for fam in ds.families:
            counts = [sum(1 for sid in f if ds[sid].family == fam)
                      for f in folds]
            assert max(counts) - min(counts) <= 1
            assert sum(counts) == 11

    def test_deterministic_but_seed_sensitive(self, planted_ds):
        assert (stratified_folds(planted_ds, 5, seed=3)
                == stratified_folds(planted_ds, 5, seed=3))
        assert (stratified_folds(planted_ds, 5, seed=3)
                != stratified_folds(planted_ds, 5, seed=4))

    def test_small_family_raises_with_family_name(self):
        rows = [_sample(f"x{i}", "big", [f"a.b{i}"]) for i in range(6)]
        rows += [_sample("y0", "tiny", ["c.d"]), _sample("y1", "tiny", ["c.e"])]
        ds = Dataset(tuple(rows))
        with pytest.raises(StratificationError, match="tiny") as exc:
            stratified_folds(ds, 3, seed=0)
        assert exc.value.count == 2
        assert exc.value.k == 3

    def test_k_below_two_rejected(self, planted_ds):
        with pytest.raises(ValueError):
            stratified_folds(planted_ds, 1, seed=0)

    def test_unlabeled_samples_never_dealt(self):
        rows = [_sample(f"x{i}", "fam", [f"a.b{i}"]) for i in range(4)]
        rows += [_sample(f"u{i}", None, [f"z.q{i}"]) for i in range(3)]
        ds = Dataset(tuple(rows))
        flat = {sid for fold in stratified_folds(ds, 2, seed=0) for sid in fold}
        assert flat == set(ds.labeled_ids)


class TestKFoldCrossval:
    def test_mutation_free_dataset_predicts_perfectly(self, clean_ds):
        ds, t = clean_ds
        cfg = OptimizerConfig(iterations=5, learning_rate=0.05,
                              threshold=0.9, seed=0)
        rep = kfold_crossval(ds, 2, cfg, tensor=t)
        assert rep.k == 2
        assert rep.mean_prediction_accuracy == 1.0
        assert all(r.prediction_accuracy == 1.0 for r in rep.per_fold)
        assert all(r.classification_accuracy == 1.0 for r in rep.per_fold)

    def test_mean_is_mean_of_folds(self, small_ds, small_tensor, fast_cfg):
        rep = kfold_crossval(small_ds, 3, fast_cfg, tensor=small_tensor)
        mean = sum(r.prediction_accuracy for r in rep.per_fold) / 3
        assert rep.mean_prediction_accuracy == pytest.approx(mean, abs=1e-12)
        assert [r.fold for r in rep.per_fold] == [0, 1, 2]

    def test_mismatched_tensor_rejected(self, small_ds, small_tensor, fast_cfg):
        reordered = Dataset(tuple(reversed(small_ds.samples)))
        with pytest.raises(ValueError, match="sample_order"):
            kfold_crossval(reordered, 2, fast_cfg, tensor=small_tensor)

    def test_held_out_fold_does_not_vote(self):
        # two clone blocks; hold out block A entirely and its members can
        # only be labeled by B voters, so every A prediction must miss
        seq_a = [f"a.call{i}" for i in range(40)]
        seq_b = [f"b.call{i}" for i in range(40)]
        rows = [_sample(f"a{i}", "famA", seq_a, perms=["p1"]) for i in range(2)]
        rows += [_sample(f"b{i}", "famB", seq_b, perms=["p2"]) for i in range(2)]
        ds = Dataset(tuple(rows))
        t = build_similarity_tensor(ds)
        cfg = OptimizerConfig(iterations=2, learning_rate=0.05,
                              threshold=0.8, seed=0)
        rep = kfold_crossval(ds, 2, cfg, tensor=t)
        # each fold holds out one a and one b; their clone mates still vote,
        # so prediction stays perfect — the mechanism test is that accuracy
        # comes from mates, not self-votes
        assert rep.mean_prediction_accuracy == 1.0


class TestUnlabeledReport:
    def test_perfect_run_has_no_errors(self, clean_ds):
        ds, t = clean_ds
        rep = classify(t, ds, WeightVector.equal(), 0.9, seed=0)
        (row,) = unlabeled_report([rep], rep.no_connection_ids)
        assert row.errors == 0
        assert row.unlabeled_fraction == 0.0
        assert row.no_connection_fraction == 0.0

    def test_threshold_one_all_errors_are_unlabeled_isolates(self, clean_ds):
        ds, t = clean_ds
        rep = classify(t, ds, WeightVector.equal(), 1.0, seed=0)
        (row,) = unlabeled_report([rep], rep.no_connection_ids)
        assert row.threshold == 1.0
        assert row.errors == len(ds)
        assert row.unlabeled_fraction == 1.0
        assert row.no_connection_fraction == 1.0

    def test_odd_one_out_attribution(self, odd_report):
        ds, rep = odd_report
        (row,) = unlabeled_report([rep], rep.no_connection_ids)
        assert row.errors == 1
        assert row.unlabeled_errors == 1
        assert row.no_connection_errors == 1

    def test_one_row_per_report_in_order(self, planted_ds, planted_tensor):
        reps = [classify(planted_tensor, planted_ds, WeightVector.equal(), th,
                         seed=0) for th in (0.85, 0.95)]
        rows = unlabeled_report(reps, reps[1].no_connection_ids)
        assert [r.threshold for r in rows] == [0.85, 0.95]
        # tighter threshold strictly grows the unlabeled error mass here
        assert rows[1].unlabeled_errors > rows[0].unlabeled_errors

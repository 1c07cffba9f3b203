import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilsimsa_oracle import ReferenceNilsimsa
from simnet import (FEATURES, CacheVersionError, Dataset, NilsimsaDigest, Sample,
                    SimilarityTensor, WeightVector, api_similarity,
                    build_similarity_tensor, final_similarity, fused_matrix,
                    generate_planted, jaccard, nilsimsa_compare, nilsimsa_digest)
from simnet import similarity
from simnet.similarity import (TRAN, _compare_matrix, _digest_rows, _incidence_rows,
                               _jaccard_matrix, _pairwise_popcount, _score_to_unit,
                               _serialize_sequence, pair_indices)

# sha256 over the four float64 matrices of the 16x50 planted tensor
# (generate_planted(16, 50, 0.10, 7)), recorded from the int32-matmul build.
TENSOR_16X50_SHA256 = "eb2397e448b2d9980e299b523385160a16f15fc7f4ef262fd1842f0e1cc2b300"

# sha256 over _digest_rows of the same corpus, an (800, 32) uint8 array,
# recorded from the per-combination int64 lookup digests.
DIGESTS_16X50_SHA256 = "13f305d838e17248b7ef1930a3483c4ff240193610047491f873652a04722ee3"

# Published nilsimsa test vectors (hex digests of the reference algorithm).
VECTOR_ABCDEFGH = "14c8118000000000030800000004042004189020001308014088003280000078"
VECTOR_ABCDEFGHIJK = "14c811840010000c0328200108040630041890200217582d4098103280000078"


def make_sample(sid, seq, perms=(), acts=(), files=(), family="f"):
    return Sample(sid, family, tuple(seq), frozenset(perms), frozenset(acts),
                  frozenset(files))


def _sequences_dataset(seqs):
    return Dataset(tuple(make_sample(f"s{i}", q) for i, q in enumerate(seqs)))


# Empty and separator-only sequences, every serialized length from 1 to 5
# bytes (the Nilsimsa ramp-up), multi-byte UTF-8, one long token, and a
# realistic 300-token sequence.
DIGEST_SEQUENCES = [
    (), ("",), ("", "", ""),
    ("a",), ("a", ""), ("a", "b"), ("ab", "c"), ("a", "b", "c"),
    ("é", "\n\n"), ("x" * 1000,),
    tuple(f"Api{i % 37}.call{i % 11}" for i in range(300)),
]


class TestNilsimsa:
    def test_tran_table_is_a_permutation(self):
        assert len(TRAN) == 256
        assert sorted(TRAN) == list(range(256))

    def test_published_vectors(self):
        assert nilsimsa_digest(b"abcdefgh").hex() == VECTOR_ABCDEFGH
        assert nilsimsa_digest(b"abcdefghijk").hex() == VECTOR_ABCDEFGHIJK
        assert nilsimsa_compare(nilsimsa_digest(b"abcdefgh"),
                                nilsimsa_digest(b"abcdefghijk")) == 109

    def test_oracle_validates_against_published_vectors(self):
        # the streaming oracle must stand on its own before we trust it
        assert ReferenceNilsimsa(b"abcdefgh").digest().hex() == VECTOR_ABCDEFGH
        assert ReferenceNilsimsa(b"abcdefghijk").digest().hex() == VECTOR_ABCDEFGHIJK

    def test_empty_input_is_all_zero_bits(self):
        assert nilsimsa_digest(b"").bits == bytes(32)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_rampup_lengths_match_oracle(self, n):
        data = bytes(range(40, 40 + n))
        assert nilsimsa_digest(data).bits == ReferenceNilsimsa(data).digest()

    def test_matches_oracle_on_random_strings(self):
        rng = random.Random(1234)
        for _ in range(40):
            data = rng.randbytes(rng.randrange(0, 400))
            assert nilsimsa_digest(data).bits == ReferenceNilsimsa(data).digest()

    @given(st.binary(max_size=200))
    @settings(max_examples=60)
    def test_digest_deterministic_and_fixed_width(self, data):
        a, b = nilsimsa_digest(data), nilsimsa_digest(data)
        assert a == b
        assert len(a.bits) == 32

    def test_digest_requires_32_bytes(self):
        with pytest.raises(ValueError):
            NilsimsaDigest(b"short")

    def test_compare_identity_and_symmetry(self):
        d1 = nilsimsa_digest(b"hello nilsimsa world")
        d2 = nilsimsa_digest(b"another byte string!")
        assert nilsimsa_compare(d1, d1) == 128
        assert nilsimsa_compare(d1, d2) == nilsimsa_compare(d2, d1)

    def test_compare_complement_is_minus_128(self):
        d = nilsimsa_digest(b"0123456789abcdef0123")
        flipped = NilsimsaDigest(bytes(b ^ 0xFF for b in d.bits))
        assert nilsimsa_compare(d, flipped) == -128

    def test_compare_equals_bitdiff_formula(self):
        rng = random.Random(7)
        for _ in range(25):
            da = nilsimsa_digest(rng.randbytes(64))
            db = nilsimsa_digest(rng.randbytes(64))
            diff = sum(bin(x ^ y).count("1") for x, y in zip(da.bits, db.bits))
            assert nilsimsa_compare(da, db) == 128 - diff

    def test_mutated_sequences_score_above_unrelated(self):
        rng = random.Random(99)
        vocab = [f"api{i}" for i in range(200)]
        mutated, unrelated = [], []
        for _ in range(60):
            base = [rng.choice(vocab) for _ in range(300)]
            twin = list(base)
            for pos in rng.sample(range(300), 30):
                twin[pos] = rng.choice(vocab)
            other = [rng.choice(vocab) for _ in range(300)]
            d = nilsimsa_digest(_serialize_sequence(base))
            mutated.append(nilsimsa_compare(d, nilsimsa_digest(_serialize_sequence(twin))))
            unrelated.append(nilsimsa_compare(d, nilsimsa_digest(_serialize_sequence(other))))
        assert np.mean(mutated) > np.mean(unrelated)


class TestDigestRows:
    def test_rows_match_scalar_digest_and_oracle(self):
        rows = _digest_rows(_sequences_dataset(DIGEST_SEQUENCES))
        assert rows.shape == (len(DIGEST_SEQUENCES), 32) and rows.dtype == np.uint8
        for seq, row in zip(DIGEST_SEQUENCES, rows):
            data = _serialize_sequence(seq)
            assert row.tobytes() == nilsimsa_digest(data).bits, seq
            assert row.tobytes() == ReferenceNilsimsa(data).digest(), seq

    @given(st.lists(st.lists(st.text(max_size=8), max_size=40), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_oracle_on_random_token_lists(self, seqs):
        rows = _digest_rows(_sequences_dataset(seqs))
        for seq, row in zip(seqs, rows):
            data = _serialize_sequence(seq)
            assert data == b"\n".join(tok.encode("utf-8") for tok in seq)
            assert row.tobytes() == nilsimsa_digest(data).bits == ReferenceNilsimsa(data).digest()

    def test_planted_16x50_matches_golden(self):
        rows = _digest_rows(generate_planted(16, 50, 0.10, 7))
        assert rows.shape == (800, 32)
        assert hashlib.sha256(rows.tobytes()).hexdigest() == DIGESTS_16X50_SHA256


class TestApiSimilarity:
    def test_identical_sequences_give_one(self):
        a = make_sample("a", ["x.y", "z.w", "q.r"] * 30)
        b = make_sample("b", ["x.y", "z.w", "q.r"] * 30)
        assert api_similarity(a, b) == 1.0

    def test_separator_prevents_boundary_collisions(self):
        assert _serialize_sequence(["ab", "c"]) != _serialize_sequence(["a", "bc"])

    def test_single_token_substitution_stays_high(self):
        rng = random.Random(5)
        seq = [f"tok{rng.randrange(500)}" for _ in range(300)]
        twin = list(seq)
        twin[150] = "replaced"
        val = api_similarity(make_sample("a", seq), make_sample("b", twin))
        assert 0.5 < val <= 1.0

    @given(st.lists(st.sampled_from(["a.b", "c.d", "e.f", "g.h"]), max_size=30),
           st.lists(st.sampled_from(["a.b", "c.d", "e.f", "g.h"]), max_size=30))
    @settings(max_examples=40)
    def test_in_unit_interval_and_symmetric(self, s1, s2):
        a, b = make_sample("a", s1), make_sample("b", s2)
        v = api_similarity(a, b)
        assert 0.0 <= v <= 1.0
        assert v == api_similarity(b, a)


class TestJaccard:
    def test_worked_example(self):
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_equal_sets_give_one(self):
        assert jaccard({"x", "y"}, {"y", "x"}) == 1.0

    def test_disjoint_sets_give_zero(self):
        assert jaccard({"x"}, {"y"}) == 0.0

    def test_empty_conventions(self):
        assert jaccard(set(), set()) == 1.0
        assert jaccard({"a"}, set()) == 0.0
        assert jaccard(set(), {"a"}) == 0.0

    @given(st.sets(st.sampled_from("abcdef"), max_size=6),
           st.sets(st.sampled_from("abcdef"), max_size=6))
    def test_matches_brute_force_enumeration(self, a, b):
        inter = sum(1 for x in a if x in b)
        union = len(set(list(a) + list(b)))
        expected = 1.0 if union == 0 else inter / union
        assert jaccard(a, b) == expected

    @given(st.sets(st.text(max_size=3), max_size=8),
           st.sets(st.text(max_size=3), max_size=8))
    def test_symmetric_unit_interval(self, a, b):
        v = jaccard(a, b)
        assert 0.0 <= v <= 1.0
        assert v == jaccard(b, a)
        assert jaccard(a, a) == 1.0


class TestWeightVector:
    def test_equal_weights(self):
        assert WeightVector.equal().as_tuple() == (0.25, 0.25, 0.25, 0.25)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightVector(-0.1, 0.5, 0.3, 0.3)

    def test_rejects_off_simplex(self):
        with pytest.raises(ValueError):
            WeightVector(0.5, 0.5, 0.5, 0.5)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            WeightVector(float("nan"), 0.0, 0.0, 1.0)

    def test_dict_follows_feature_order(self):
        w = WeightVector(0.1, 0.2, 0.3, 0.4)
        assert list(w.as_dict()) == list(FEATURES)


class TestFinalSimilarity:
    @pytest.fixture
    def tensor(self):
        return SimilarityTensor(("a", "b"), *(np.array([v]) for v in (0.8, 0.6, 0.9, 0.5)))

    def test_all_ones_stay_one(self):
        t = SimilarityTensor(("a", "b"), *(np.ones(1) for _ in FEATURES))
        # dyadic weights keep the convex combination exact in floats
        assert final_similarity(t, WeightVector(0.5, 0.25, 0.125, 0.125), 0, 1) == 1.0
        assert final_similarity(t, WeightVector(0.4, 0.3, 0.2, 0.1), 0, 1) == \
            pytest.approx(1.0, abs=1e-12)

    def test_vertex_weight_selects_single_feature(self, tensor):
        assert final_similarity(tensor, WeightVector(1.0, 0.0, 0.0, 0.0), 0, 1) == 0.8

    def test_reported_operating_weights_worked_example(self, tensor):
        # 0.166*0.8 + 0.423*0.6 + 0.295*0.9 + 0.116*0.5 = 0.7101
        w = WeightVector(0.166, 0.423, 0.295, 0.116)
        assert final_similarity(tensor, w, 0, 1) == pytest.approx(0.7101, abs=1e-12)

    def test_index_out_of_range(self, tensor):
        with pytest.raises(IndexError):
            final_similarity(tensor, WeightVector.equal(), 0, 2)

    @given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
           st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
           st.floats(0.0, 1.0))
    @settings(max_examples=50)
    def test_linear_in_weights(self, raw1, raw2, alpha):
        w1 = WeightVector.from_array(np.array(raw1) / np.sum(raw1))
        w2 = WeightVector.from_array(np.array(raw2) / np.sum(raw2))
        mix = WeightVector.from_array(
            alpha * w1.as_array() + (1 - alpha) * w2.as_array())
        vecs = [np.array([v]) for v in (0.8, 0.6, 0.9, 0.5)]
        t = SimilarityTensor(("a", "b"), *vecs)
        lhs = final_similarity(t, mix, 0, 1)
        rhs = (alpha * final_similarity(t, w1, 0, 1)
               + (1 - alpha) * final_similarity(t, w2, 0, 1))
        assert lhs == pytest.approx(rhs, abs=1e-12)


# Pair values that must be reported as a corrupt cache wherever they appear.
OUT_OF_RANGE = [float("nan"), float("inf"), -0.25, 1.5]


def patch_pair(path, value, feature=0, pair=0):
    """Overwrite one pair value of a saved cache in place."""
    raw = bytearray(path.read_bytes())
    n = json.loads(raw[:raw.index(b"\n")])["n"]
    at = raw.index(b"\n") + 1 + 8 * (feature * (n * (n - 1) // 2) + pair)
    raw[at:at + 8] = np.float64(value).tobytes()
    path.write_bytes(bytes(raw))


class TestTensor:
    def test_single_sample(self):
        ds = Dataset((make_sample("only", ["a.b"], {"p"}, {"a"}, {"f"}),))
        t = build_similarity_tensor(ds)
        for m in t.matrices():
            assert m.shape == (1, 1) and m[0, 0] == 1.0

    def test_identical_samples_all_ones(self):
        a = make_sample("a", ["x", "y", "z"] * 5, {"p1", "p2"}, {"act"}, {"f"})
        b = make_sample("b", ["x", "y", "z"] * 5, {"p1", "p2"}, {"act"}, {"f"})
        t = build_similarity_tensor(Dataset((a, b)))
        for m in t.matrices():
            assert (m == 1.0).all()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            build_similarity_tensor(Dataset(()))

    def test_matrices_symmetric_unit_diagonal_unit_interval(self, small_tensor):
        for m in small_tensor.matrices():
            assert np.array_equal(m, m.T)
            assert (np.diag(m) == 1.0).all()
            assert ((m >= 0.0) & (m <= 1.0)).all()

    def test_intra_family_exceeds_inter_family_in_every_matrix(self, small_ds,
                                                               small_tensor):
        fams = np.array([s.family for s in small_ds])
        same = (fams[:, None] == fams[None, :]) & ~np.eye(len(fams), dtype=bool)
        diff = ~(fams[:, None] == fams[None, :])
        for name, m in zip(FEATURES, small_tensor.matrices()):
            assert m[same].mean() > m[diff].mean(), name

    def test_entries_match_scalar_operations(self, small_ds, small_tensor):
        for i, a in enumerate(small_ds):
            for j, b in enumerate(small_ds):
                assert small_tensor.pair(i, j) == (
                    api_similarity(a, b), jaccard(a.permissions, b.permissions),
                    jaccard(a.activity_names, b.activity_names),
                    jaccard(a.file_names, b.file_names)), (i, j)

    def test_planted_16x50_matches_golden(self):
        t = build_similarity_tensor(generate_planted(16, 50, 0.10, 7))
        h = hashlib.sha256()
        for m in t.matrices():
            h.update(np.ascontiguousarray(m, dtype=np.float64).tobytes())
        assert h.hexdigest() == TENSOR_16X50_SHA256

    def test_all_sets_empty_give_all_ones(self):
        ds = Dataset(tuple(make_sample(f"s{i}", []) for i in range(3)))
        t = build_similarity_tensor(ds)
        for m in t.matrices():
            assert (m == 1.0).all()

    def test_subset_slices_every_matrix(self, small_tensor):
        idx = [3, 0, 7]
        sub = small_tensor.subset(idx)
        assert sub.sample_order == tuple(small_tensor.sample_order[i] for i in idx)
        for full, part in zip(small_tensor.matrices(), sub.matrices()):
            assert np.array_equal(part, full[np.ix_(idx, idx)])

    def test_save_load_roundtrip_is_exact(self, small_tensor, tmp_path):
        path = tmp_path / "tensor.bin"
        small_tensor.save(path)
        loaded = SimilarityTensor.load(path)
        assert loaded.sample_order == small_tensor.sample_order
        for a, b in zip(small_tensor.matrices(), loaded.matrices()):
            assert np.array_equal(a, b)

    def test_cache_is_byte_stable(self, small_tensor, tmp_path):
        p1, p2 = tmp_path / "t1.bin", tmp_path / "t2.bin"
        small_tensor.save(p1)
        small_tensor.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_trailing_bytes_rejected(self, small_tensor, tmp_path):
        path = tmp_path / "t.bin"
        small_tensor.save(path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="corrupt tensor cache: trailing bytes"):
            SimilarityTensor.load(path)

    @pytest.mark.parametrize("value", OUT_OF_RANGE)
    @pytest.mark.parametrize("feature", range(len(FEATURES)))
    def test_value_outside_unit_interval_rejected(self, small_tensor, tmp_path,
                                                  feature, value):
        path = tmp_path / "t.bin"
        small_tensor.save(path)
        patch_pair(path, value, feature, pair=feature * 97)
        with pytest.raises(ValueError, match="corrupt tensor cache: "
                           f"{FEATURES[feature]} value outside"):
            SimilarityTensor.load(path)

    def test_failed_save_leaves_previous_cache_intact(self, small_tensor, tmp_path):
        path = tmp_path / "t.bin"
        small_tensor.save(path)
        before = path.read_bytes()
        # the fourth block cannot convert to float64, so the write fails midway
        bad = np.array(["x"], dtype=object)
        broken = SimilarityTensor(("a", "b"), np.ones(1), np.ones(1), np.ones(1), bad)
        with pytest.raises(ValueError):
            broken.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.bin"]

    def test_unknown_cache_version_rejected(self, small_tensor, tmp_path):
        path = tmp_path / "t.bin"
        small_tensor.save(path)
        blob = path.read_bytes().replace(b'"format_version":2', b'"format_version":9', 1)
        path.write_bytes(blob)
        with pytest.raises(CacheVersionError, match="version"):
            SimilarityTensor.load(path)

    def test_fused_matrix_bit_identical_to_scalar(self, small_tensor):
        w = WeightVector(0.3, 0.3, 0.2, 0.2)
        fused = fused_matrix(small_tensor, w)
        iu, ju = pair_indices(small_tensor.n)
        rng = random.Random(1)
        for _ in range(20):
            k = rng.randrange(fused.size)
            assert fused[k] == final_similarity(small_tensor, w, iu[k], ju[k])
            assert fused[k] == final_similarity(small_tensor, w, ju[k], iu[k])


def _scalar_jaccard_matrix(sets):
    return np.array([[jaccard(a, b) for b in sets] for a in sets])


def _condensed(m):
    """The condensed pairs of a dense symmetric matrix, in triu_indices order."""
    return m[np.triu_indices(len(m), 1)]


def _random_sets(rng, vocab_size, n):
    """n random subsets of a vocabulary of exactly ``vocab_size`` tokens."""
    vocab = [f"tok{k}" for k in range(vocab_size)]
    sets = [frozenset(vocab)]  # one full set pins the vocabulary size
    sets += [frozenset(rng.sample(vocab, rng.randrange(vocab_size + 1)))
             for _ in range(n - 1)]
    return sets


class TestPopcountKernel:
    def test_empty_vocabulary(self):
        sets = [frozenset()] * 3
        assert _incidence_rows(sets).shape == (3, 1)
        assert np.array_equal(_jaccard_matrix(sets), _condensed(_scalar_jaccard_matrix(sets)))

    def test_one_set_empty(self):
        sets = [frozenset({"a", "b"}), frozenset(), frozenset({"b", "c"})]
        sim = _jaccard_matrix(sets)
        assert np.array_equal(sim, _condensed(_scalar_jaccard_matrix(sets)))
        assert sim[0] == sim[2] == 0.0  # pairs (0, 1) and (1, 2)

    @pytest.mark.parametrize("vocab_size", [1, 63, 64, 65, 128, 129])
    def test_word_boundary_vocabularies(self, vocab_size):
        sets = _random_sets(random.Random(vocab_size), vocab_size, 12)
        rows = _incidence_rows(sets)
        assert rows.dtype == np.uint64
        assert rows.shape == (12, -(-vocab_size // 64))
        assert np.array_equal(_jaccard_matrix(sets), _condensed(_scalar_jaccard_matrix(sets)))

    def test_single_sample(self):
        assert _jaccard_matrix([frozenset({"a"})]).shape == (0,)
        assert _jaccard_matrix([frozenset()]).shape == (0,)
        ds = Dataset((make_sample("only", ["a.b", "c.d", "e.f"]),))
        assert _compare_matrix(_digest_rows(ds)).shape == (0,)

    def test_many_blocks_match_one_block(self, monkeypatch, small_ds):
        sets = _random_sets(random.Random(5), 129, 40)
        digests = _digest_rows(small_ds)
        jac, cmp_ = _jaccard_matrix(sets), _compare_matrix(digests)
        bits = [NilsimsaDigest(row.tobytes()) for row in digests]
        scalar_cmp = _condensed(np.array([[_score_to_unit(nilsimsa_compare(a, b)) for b in bits]
                                      for a in bits]))
        monkeypatch.setattr(similarity, "_BLOCK_BYTES", 1)
        assert len(list(_pairwise_popcount(_incidence_rows(sets), np.bitwise_and))) == 40
        # 624 bytes gives blocks of one row, then of 2-4 rows as n - lo shrinks
        for block_bytes in (1, 624):
            monkeypatch.setattr(similarity, "_BLOCK_BYTES", block_bytes)
            for blocked, single in ((_jaccard_matrix(sets), jac),
                                    (_compare_matrix(digests), cmp_)):
                assert np.array_equal(blocked, single)
            assert np.array_equal(_jaccard_matrix(sets), _condensed(_scalar_jaccard_matrix(sets)))
            assert np.array_equal(_compare_matrix(digests), scalar_cmp)

    @staticmethod
    def _python_popcounts(rows, op):
        return np.array([[sum(bin(op(int(a), int(b))).count("1") for a, b in zip(ri, rj))
                          for rj in rows] for ri in rows])

    # Over 13 rows of 3 words, 1 byte gives one row per block and 624 bytes
    # gives blocks of 2, 2, 2, 3 and 4 rows, since rows per block follow n - lo.
    @pytest.mark.parametrize("block_bytes, spans", [
        (1, [(i, i + 1) for i in range(13)]),
        (624, [(0, 2), (2, 4), (4, 6), (6, 9), (9, 13)]),
    ], ids=["one-row", "uneven"])
    def test_blocks_tile_upper_triangle(self, monkeypatch, block_bytes, spans):
        rows = np.frombuffer(random.Random(3).randbytes(13 * 3 * 8), dtype=np.uint64)
        rows = rows.reshape(13, 3)
        monkeypatch.setattr(similarity, "_BLOCK_BYTES", block_bytes)
        for op, py_op in ((np.bitwise_and, int.__and__), (np.bitwise_xor, int.__xor__)):
            expected = self._python_popcounts(rows, py_op)
            cover = np.zeros((13, 13), dtype=np.int64)
            blocks = []
            for lo, hi, counts in _pairwise_popcount(rows, op):
                assert counts.shape == (hi - lo, 13 - lo)
                assert np.array_equal(counts, expected[lo:hi, lo:])
                cover[lo:hi, lo:] += 1
                blocks.append((lo, hi))
            assert blocks == spans
            assert np.array_equal(np.triu(cover), np.triu(np.ones((13, 13), dtype=np.int64)))

    def test_counts_match_python_popcount(self):
        rows = np.frombuffer(random.Random(0).randbytes(9 * 3 * 8), dtype=np.uint64)
        rows = rows.reshape(9, 3)
        xor = np.vstack([c for _, _, c in _pairwise_popcount(rows, np.bitwise_xor)])
        assert np.array_equal(xor, self._python_popcounts(rows, int.__xor__))


# sha256 of the v2 cache file of generate_planted(2, 3, 0.10, 1): the header
# line, then each feature's 15 pairs in triu_indices order.  Cross-checked
# against the upper triangles of the dense matrices of the n×n layout.
CACHE_2X3_SHA256 = "c344a7a8e61e838fbad2d077d1f42bf62d0d6e0f651cd9c6a7dd5012ce755d5e"


def _pairs(n):
    return n * (n - 1) // 2


class TestCondensedLayout:
    def test_subset_unsorted_equals_dense_ix(self, small_tensor):
        idx = np.random.default_rng(4).permutation(small_tensor.n)[:30]
        sub = small_tensor.subset(idx)
        assert sub.api.shape == (_pairs(30),)
        for full, part in zip(small_tensor.matrices(), sub.matrices()):
            assert np.array_equal(part, full[np.ix_(idx, idx)])

    @pytest.mark.parametrize("idx", [[0, 0], [0, 48], [-1, 2]])
    def test_subset_rejects_repeated_or_out_of_range(self, small_tensor, idx):
        with pytest.raises((ValueError, IndexError)):
            small_tensor.subset(idx)

    @pytest.mark.parametrize("n", [1, 2])
    def test_smallest_tensors(self, tmp_path, n):
        ds = Dataset(tuple(make_sample(f"s{i}", ["a.b", f"c{i}"], {"p"}, {f"a{i}"})
                           for i in range(n)))
        t = build_similarity_tensor(ds)
        assert all(v.shape == (_pairs(n),) for v in t.vectors())
        assert t.pair(0, 0) == (1.0, 1.0, 1.0, 1.0)
        dense = list(t.matrices())
        assert all(m.shape == (n, n) and (np.diag(m) == 1.0).all() for m in dense)
        if n == 2:
            assert t.pair(0, 1) == t.pair(1, 0) == tuple(m[0, 1] for m in dense)
            assert t.activity[0] == 0.0 and t.permission[0] == 1.0
        path = tmp_path / "t.bin"
        t.save(path)
        back = SimilarityTensor.load(path)
        assert all(np.array_equal(a, b) for a, b in zip(t.vectors(), back.vectors()))
        assert fused_matrix(t, WeightVector.equal()).shape == (_pairs(n),)

    def test_wrong_vector_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            SimilarityTensor(("a", "b", "c"), *[np.ones(2)] * 4)

    @pytest.mark.parametrize("block_bytes", [1, 624])
    def test_kernel_condensed_equals_dense_reference(self, monkeypatch, small_ds,
                                                     block_bytes):
        monkeypatch.setattr(similarity, "_BLOCK_BYTES", block_bytes)
        t = build_similarity_tensor(small_ds)
        bits = [nilsimsa_digest(_serialize_sequence(s.api_sequence)) for s in small_ds]
        api = np.array([[_score_to_unit(nilsimsa_compare(a, b)) for b in bits]
                        for a in bits])
        assert np.array_equal(t.api, _condensed(api))
        set_features = ([s.permissions for s in small_ds],
                        [s.activity_names for s in small_ds],
                        [s.file_names for s in small_ds])
        for name, v, sets in zip(FEATURES[1:], t.vectors()[1:], set_features):
            assert np.array_equal(v, _condensed(_scalar_jaccard_matrix(sets))), name

    def test_matrices_reiterable_and_dense(self, small_tensor):
        mats = small_tensor.matrices()
        assert len(mats) == len(FEATURES)
        first, second = list(mats), list(mats)
        assert len(first) == len(second) == 4
        for a, b in zip(first, second):
            assert a is not b and np.array_equal(a, b)
            assert a.flags.c_contiguous and a.dtype == np.float64
            assert np.array_equal(a, a.T) and (np.diag(a) == 1.0).all()
        assert np.array_equal(mats[1], first[1])

    def test_cache_is_header_plus_four_condensed_blocks(self, small_tensor, tmp_path):
        path = tmp_path / "t.bin"
        small_tensor.save(path)
        blob = path.read_bytes()
        header = blob.split(b"\n", 1)[0]
        assert json.loads(header)["format_version"] == 2
        assert len(blob) == len(header) + 1 + 32 * _pairs(small_tensor.n)

    def test_small_cache_file_matches_golden(self, tmp_path):
        path = tmp_path / "t.bin"
        build_similarity_tensor(generate_planted(2, 3, 0.10, 1)).save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CACHE_2X3_SHA256


_DROP = object()


def _header(**fields):
    base = {"format_version": 2, "n": 2, "features": list(FEATURES),
            "sample_order": ["a", "b"]}
    base.update(fields)
    return json.dumps({k: v for k, v in base.items() if v is not _DROP}).encode()

# Header lines that must be reported as a corrupt cache, never as a
# traceback, with the part of the message that names the problem.
CORRUPT_HEADERS = {
    "list": (b"[]", "not a JSON object"),
    "string": (b'"v2"', "not a JSON object"),
    "not-json": (b"{not json", "unreadable header"),
    "not-ascii": ('{"n": "é"}'.encode("utf-8"), "unreadable header"),
    "no-n": (_header(n=_DROP), "n must be"),
    "n-string": (_header(n="2"), "n must be"),
    "n-float": (_header(n=2.0), "n must be"),
    "n-bool": (_header(n=True, sample_order=["a"]), "n must be"),
    "n-zero": (_header(n=0, sample_order=[]), "n must be"),
    "no-features": (_header(features=_DROP), "features"),
    "features-reordered": (_header(features=list(reversed(FEATURES))), "features"),
    "order-short": (_header(sample_order=["a"]), "sample_order"),
    "order-not-strings": (_header(sample_order=["a", 2]), "sample_order"),
    "order-not-list": (_header(sample_order="ab"), "sample_order"),
}


class TestCacheHeader:
    @pytest.mark.parametrize("line, problem", CORRUPT_HEADERS.values(),
                             ids=CORRUPT_HEADERS.keys())
    def test_corrupt_header_rejected(self, tmp_path, line, problem):
        path = tmp_path / "t.bin"
        path.write_bytes(line + b"\n" + bytes(32))
        with pytest.raises(ValueError, match="corrupt tensor cache") as info:
            SimilarityTensor.load(path)
        assert problem in str(info.value)
        assert not isinstance(info.value, CacheVersionError)

    @pytest.mark.parametrize("version", [None, 1, "2", 3])
    def test_other_versions_are_version_errors(self, tmp_path, version):
        path = tmp_path / "t.bin"
        path.write_bytes(_header(format_version=version) + b"\n" + bytes(32))
        with pytest.raises(CacheVersionError, match="unsupported tensor cache version"):
            SimilarityTensor.load(path)

    def test_valid_header_loads(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(_header() + b"\n" + np.full(4, 0.5).tobytes())
        t = SimilarityTensor.load(path)
        assert t.sample_order == ("a", "b") and t.pair(1, 0) == (0.5,) * 4

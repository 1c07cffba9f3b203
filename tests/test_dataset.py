import json

import pytest
from hypothesis import given, settings, strategies as st

from simnet import (Dataset, ParseError, Sample, ValidationError,
                    generate_planted, load_dataset, save_dataset)


def make_sample(i, family="famA", seq=("a", "b", "c")):
    return Sample(f"s{i}", family, tuple(seq), frozenset({"p1"}),
                  frozenset({"a1"}), frozenset({"f1"}))


class TestSample:
    def test_empty_id_rejected(self):
        with pytest.raises(ValidationError):
            Sample("", "famA", (), frozenset(), frozenset(), frozenset())

    def test_empty_family_rejected(self):
        with pytest.raises(ValidationError):
            Sample("x", "", (), frozenset(), frozenset(), frozenset())

    def test_unlabeled_allowed(self):
        s = Sample("x", None, (), frozenset(), frozenset(), frozenset())
        assert s.family is None


class TestDataset:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Dataset((make_sample(1), make_sample(1)))

    def test_census_and_families(self):
        ds = Dataset((make_sample(1, "b"), make_sample(2, "a"),
                      make_sample(3, "a"), make_sample(4, None)))
        assert ds.label_census() == {"a": 2, "b": 1}
        assert ds.families == ("a", "b")
        assert ds.labeled_ids == ("s1", "s2", "s3")

    def test_ids_computed_once(self):
        ds = Dataset((make_sample(1, "b"), make_sample(2, None), make_sample(3, "a")))
        assert ds.ids == ("s1", "s2", "s3") and ds.labeled_ids == ("s1", "s3")
        assert ds.ids is ds.ids and ds.labeled_ids is ds.labeled_ids

    def test_family_codes_index_families(self):
        ds = Dataset((make_sample(1, "b"), make_sample(2, "a"), make_sample(3, None)))
        assert ds.family_codes.tolist() == [1, 0, -1]
        with pytest.raises(ValueError):
            ds.family_codes[0] = 0

    def test_subset_keeps_order(self):
        ds = Dataset(tuple(make_sample(i) for i in range(5)))
        sub = ds.subset(["s3", "s0"])
        assert sub.ids == ("s0", "s3")


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        ds = generate_planted(3, 4, 0.2, seed=1)
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.samples == ds.samples

    def test_save_is_byte_stable(self, tmp_path):
        ds = generate_planted(2, 3, 0.1, seed=5)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(ds, p1)
        save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @given(rows=st.lists(
        st.tuples(st.text(min_size=1, max_size=8),
                  st.lists(st.text(max_size=5), max_size=4),
                  st.lists(st.text(max_size=5), max_size=3)),
        max_size=5))
    @settings(max_examples=25)
    def test_roundtrip_arbitrary_content(self, rows, tmp_path_factory):
        samples = []
        for i, (fam, seq, toks) in enumerate(rows):
            samples.append(Sample(f"id{i}", fam, tuple(seq), frozenset(toks),
                                  frozenset(), frozenset(toks[:2])))
        ds = Dataset(tuple(samples))
        path = tmp_path_factory.mktemp("rt") / "ds.jsonl"
        save_dataset(ds, path)
        assert load_dataset(path).samples == ds.samples


class TestLoadErrors:
    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":"a","api_sequence":[]}\n{not json\n')
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert exc.value.line_no == 2

    def test_validation_error_names_sample_and_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":"s9","api_sequence":"oops"}\n')
        with pytest.raises(ValidationError) as exc:
            load_dataset(path)
        assert exc.value.sample_id == "s9"
        assert exc.value.fieldname == "api_sequence"

    def test_duplicate_id_across_lines(self, tmp_path):
        rec = '{"id":"dup","api_sequence":[]}\n'
        path = tmp_path / "dup.jsonl"
        path.write_text(rec + rec)
        with pytest.raises(ValidationError, match="duplicate"):
            load_dataset(path)

    def test_skip_invalid_drops_and_warns(self, tmp_path, caplog):
        path = tmp_path / "mixed.jsonl"
        path.write_text('{"id":"ok","api_sequence":["x"]}\n'
                        'garbage\n'
                        '{"id":"ok2","api_sequence":[]}\n')
        with caplog.at_level("WARNING"):
            ds = load_dataset(path, skip_invalid=True)
        assert ds.ids == ("ok", "ok2")
        assert any("line 2" in r.message for r in caplog.records)

    def test_skip_invalid_names_each_line_once(self, tmp_path, caplog):
        path = tmp_path / "mixed.jsonl"
        path.write_text('{"id":"ok","api_sequence":["x"]}\n'
                        'garbage\n'
                        '{"id":"ok","api_sequence":[]}\n')
        with caplog.at_level("WARNING"):
            ds = load_dataset(path, skip_invalid=True)
        assert ds.ids == ("ok",)
        assert [r.getMessage() for r in caplog.records] == [
            "skipping line 2: invalid JSON (Expecting value)",
            "skipping line 3: sample 'ok', field 'id': duplicate sample id",
        ]

    def test_undecodable_line_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"id":"a","api_sequence":[]}\n'
                         b'{"id":"b\xff","api_sequence":[]}\n')
        with pytest.raises(ParseError, match="invalid UTF-8") as exc:
            load_dataset(path)
        assert exc.value.line_no == 2

    def test_skip_invalid_drops_undecodable_line(self, tmp_path, caplog):
        path = tmp_path / "mixed.jsonl"
        # a valid multi-byte line and CRLF endings around the bad one
        path.write_bytes(b'{"id":"\xc3\xa9","api_sequence":["x"]}\r\n'
                         b'{"id":"b","api_sequence":["\xed\xb2\x80"]}\r\n'
                         b'{"id":"c","api_sequence":[]}\r\n')
        with caplog.at_level("WARNING"):
            ds = load_dataset(path, skip_invalid=True)
        assert ds.ids == ("\u00e9", "c")
        assert any("line 2: invalid UTF-8" in r.message for r in caplog.records)

    def test_universal_newlines(self, tmp_path):
        path = tmp_path / "crlf.jsonl"
        path.write_bytes(b'{"id":"a","api_sequence":["x"]}\r\n'
                         b'{"id":"b","api_sequence":["y"]}\r'
                         b'{"id":"c","api_sequence":["z"]}')
        assert load_dataset(path).ids == ("a", "b", "c")

    def test_strict_mode_preserves_record_count(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        lines = [json.dumps({"id": f"s{i}", "api_sequence": []}) for i in range(7)]
        path.write_text("\n".join(lines) + "\n")
        assert len(load_dataset(path)) == 7

    def test_missing_set_fields_default_empty(self, tmp_path):
        path = tmp_path / "min.jsonl"
        path.write_text('{"id":"m","family":"f","api_sequence":["a"]}\n')
        s = load_dataset(path)["m"]
        assert s.permissions == frozenset()

    def test_null_family_means_unlabeled(self, tmp_path):
        path = tmp_path / "n.jsonl"
        path.write_text('{"id":"m","family":null,"api_sequence":[]}\n')
        assert load_dataset(path)["m"].family is None


class TestGenerator:
    def test_pure_function_of_arguments(self):
        a = generate_planted(3, 5, 0.15, seed=9)
        b = generate_planted(3, 5, 0.15, seed=9)
        assert a.samples == b.samples

    def test_seed_changes_output(self):
        a = generate_planted(2, 3, 0.15, seed=1)
        b = generate_planted(2, 3, 0.15, seed=2)
        assert a.samples != b.samples

    def test_mutation_zero_gives_identical_family_members(self):
        ds = generate_planted(3, 6, 0.0, seed=4)
        for fam in ds.families:
            members = [s for s in ds if s.family == fam]
            first = members[0]
            for m in members[1:]:
                assert m.api_sequence == first.api_sequence
                assert m.permissions == first.permissions
                assert m.activity_names == first.activity_names
                assert m.file_names == first.file_names

    def test_census_shape(self):
        ds = generate_planted(8, 50, 0.10, seed=7)
        assert ds.label_census() == {f"fam{i:02d}": 50 for i in range(8)}

    def test_all_labeled_unique_ids(self):
        ds = generate_planted(4, 10, 0.3, seed=2)
        assert len(set(ds.ids)) == 40
        assert len(ds.labeled_ids) == 40

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_mutation_rate_validated(self, bad):
        with pytest.raises(ValueError):
            generate_planted(2, 2, bad, seed=0)

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            generate_planted(0, 5, 0.1, seed=0)

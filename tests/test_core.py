"""Data model and file I/O tests."""

import csv
import io
import os
import warnings
from unittest import mock

import numpy as np
import pytest

from labelcal.core import (
    DuplicateLabelError,
    EnsembleSet,
    LabelMatrix,
    MalformedNumberError,
    MatrixFormatError,
    ProbMatrix,
    RaggedRowError,
    ValueRangeError,
    _parse_rows,
    atomic_write,
    concat_labels,
    ensemble_average,
    format_matrix,
    load_label_matrix,
    load_prob_matrix,
    load_texts,
    save_prob_matrix,
    save_texts,
    substring_filter,
)


def write(tmp_path, text, name="m.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestProbMatrixLoading:
    def test_simple_parse(self, tmp_path):
        m = load_prob_matrix(write(tmp_path, "a,b\n0.1,0.9\n"))
        assert m.labels == ("a", "b")
        np.testing.assert_array_equal(m.values, [[0.1, 0.9]])

    def test_header_only_gives_empty_matrix(self, tmp_path):
        m = load_prob_matrix(write(tmp_path, "a,b\n"))
        assert m.values.shape == (0, 2)

    def test_range_error_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "a,b\n0.1,1.5\n")
        with pytest.raises(ValueRangeError) as info:
            load_prob_matrix(path)
        assert str(info.value) == f"{path}: value 1.5 outside [0, 1] at row 1, column 'b'"

    def test_malformed_number_names_position(self, tmp_path):
        with pytest.raises(MalformedNumberError, match=r"row 2.*'a'"):
            load_prob_matrix(write(tmp_path, "a,b\n0.1,0.2\noops,0.3\n"))

    def test_ragged_row(self, tmp_path):
        with pytest.raises(RaggedRowError, match="row 1"):
            load_prob_matrix(write(tmp_path, "a,b\n0.1\n"))

    def test_duplicate_label(self, tmp_path):
        with pytest.raises(DuplicateLabelError, match="'a'"):
            load_prob_matrix(write(tmp_path, "a,a\n0.1,0.2\n"))

    @pytest.mark.parametrize("text, message", [
        ("a,a\n0.1,0.2\n", "duplicate label name 'a' at columns 1 and 2"),
        ("a,\n0.1,0.2\n", "empty label name at column 2"),
    ])
    def test_header_errors_name_the_file(self, tmp_path, text, message):
        path = write(tmp_path, text)
        for load in (load_prob_matrix, load_label_matrix):
            with pytest.raises(DuplicateLabelError) as info:
                load(path)
            assert str(info.value) == f"{path}: {message}"

    def test_tiny_overshoot_is_clamped(self):
        m = ProbMatrix(("a",), np.array([[1.0 + 5e-10], [-5e-10]]))
        assert m.values.max() == 1.0
        assert m.values.min() == 0.0

    def test_large_overshoot_is_an_error(self):
        with pytest.raises(ValueRangeError):
            ProbMatrix(("a",), np.array([[1.0 + 1e-6]]))

    def test_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        m = ProbMatrix(("x", "y", "z"), rng.random((20, 3)))
        path = str(tmp_path / "rt.csv")
        save_prob_matrix(m, path)
        again = load_prob_matrix(path)
        save_prob_matrix(again, path + ".2")
        assert (tmp_path / "rt.csv").read_bytes() == (tmp_path / "rt.csv.2").read_bytes()
        np.testing.assert_array_equal(m.values, again.values)

    def test_values_are_read_only(self):
        m = ProbMatrix(("a",), np.array([[0.5]]))
        with pytest.raises(ValueError):
            m.values[0, 0] = 0.1


def parse_outcome(text):
    """Labels, shape and value bits of a parse, or its exception type and message."""
    try:
        labels, data = _parse_rows(text, "m.csv")
    except Exception as exc:
        return type(exc), str(exc)
    return labels, data.shape, data.tobytes()


def read(labels, rows):
    """The outcome of a parse that reads ``rows`` under ``labels``."""
    data = np.array(rows, dtype=np.float64).reshape(len(rows), len(labels))
    return labels, data.shape, data.tobytes()


def csv_message(text):
    """Python's own csv error for ``text`` (its wording differs between versions)."""
    try:
        list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        return str(exc)


# Each text with the outcome the per-cell float() parser gave it, or, where
# marked, the outcome of numpy's number grammar and the path-prefixed header error.
EDGE_CASES = {
    # changed: float() reads these, numpy's C parser does not
    "underscore digits": ("a\n1_0\n", (
        MalformedNumberError, "m.csv: malformed number '1_0' at row 1, column 'a'")),
    "fullwidth digit": ("a\n\uff11\n", (
        MalformedNumberError, "m.csv: malformed number '１' at row 1, column 'a'")),
    "arabic-indic digit": ("a\n\u0663\n", (
        MalformedNumberError, "m.csv: malformed number '٣' at row 1, column 'a'")),
    "file separator": ("a\n0.5\x1c\n", (
        MalformedNumberError, "m.csv: malformed number '0.5\\x1c' at row 1, column 'a'")),
    "whitespace-only line": ("a,b\n0.1,0.2\n \n", (
        RaggedRowError, "m.csv: row 2 has 1 fields, expected 2")),
    "cr only": ("a,b\r0.1,0.2\r", (
        MatrixFormatError, f"m.csv: malformed CSV on line 1: {csv_message('a,b' + chr(13) + '0')}")),
    "crlf": ("a,b\r\n0.1,0.2\r\n0.3,0.4\r\n", read(("a", "b"), [[0.1, 0.2], [0.3, 0.4]])),
    "quoted cells": ('a,b\n"0.1","0.2"\n', read(("a", "b"), [[0.1, 0.2]])),
    "trailing comma": ("a,b\n0.1,0.2,\n", (RaggedRowError, "m.csv: row 1 has 3 fields, expected 2")),
    "nan and inf": ("a,b,c\nnan,inf,-inf\n", read(("a", "b", "c"), [[np.nan, np.inf, -np.inf]])),
    "underflow": ("a,b\n1e-400,5e-324\n", read(("a", "b"), [[0.0, 5e-324]])),
    "header only": ("a,b\n", read(("a", "b"), [])),
    "single column": ("a\n0.5\n0.25\n", read(("a",), [[0.5], [0.25]])),
    "ragged row": ("a,b\n0.1,0.2\n0.3\n", (RaggedRowError, "m.csv: row 2 has 1 fields, expected 2")),
    "empty cell": ("a,b\n0.1,\n", (
        MalformedNumberError, "m.csv: malformed number '' at row 1, column 'b'")),
    "blank lines": ("\na,b\n\n0.1,0.2\n\n0.3,0.4", read(("a", "b"), [[0.1, 0.2], [0.3, 0.4]])),
    "blank body lines": ("a,b\n\n0.1,0.2\n\n\n0.3,0.4\n\n", read(("a", "b"), [[0.1, 0.2], [0.3, 0.4]])),
    "no trailing newline": ("a,b\n0.1,0.2", read(("a", "b"), [[0.1, 0.2]])),
    "nul in header": ("a\x00,b\n0.1,0.2\n", read(("a\x00", "b"), [[0.1, 0.2]])),
    "signs and bare points": ("a,b,c,d\n-0,+.5,1.,1E+2\n", read(("a", "b", "c", "d"),
                                                               [[-0.0, 0.5, 1.0, 100.0]])),
    # changed: the header error names the file, as the row errors do
    "duplicate label": ("a,a\n0.1,0.2\n", (
        DuplicateLabelError, "m.csv: duplicate label name 'a' at columns 1 and 2")),
    "quoted header newline": ('"a\nb",c\n0.1,0.2\n', read(("a\nb", "c"), [[0.1, 0.2]])),
    # changed: float() strips the tab, numpy's grammar is printable ASCII
    "tab in a cell": ("a,b\n0.1,\t0.2\n", (
        MalformedNumberError, "m.csv: malformed number '\\t0.2' at row 1, column 'b'")),
    "line break in a quoted cell": ('a,b\n"0.1\n",0.2\n', read(("a", "b"), [[0.1, 0.2]])),
    "bad cell after a quoted line break": ('a,b\n"\n0.1",x\n', (
        MalformedNumberError, "m.csv: malformed number 'x' at row 1, column 'b'")),
    "blank line before a bad row": ("a,b\n\n0.1,x\n", (
        MalformedNumberError, "m.csv: malformed number 'x' at row 1, column 'b'")),
    "bare cr in the body": ("a,b\n0.1,0.2\r0.3,0.4\n", (
        MatrixFormatError, f"m.csv: malformed CSV on line 2: {csv_message('0' + chr(13) + '0')}")),
}
# texts with data rows that numpy's C parser reads whole
NUMERIC = tuple(name for name, (_, outcome) in EDGE_CASES.items()
                if not isinstance(outcome[0], type) and outcome[1][0])


class TestParseRows:
    @pytest.mark.parametrize("text, outcome", EDGE_CASES.values(), ids=EDGE_CASES.keys())
    def test_same_outcome_as_per_cell_parser(self, text, outcome):
        assert parse_outcome(text) == outcome

    @pytest.mark.parametrize("name", NUMERIC)
    def test_numeric_body_skips_per_cell_parser(self, name):
        """A body that parses is read by one np.loadtxt call, never cell by cell."""
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            _parse_rows(EDGE_CASES[name][0], "m.csv")
        assert loadtxt.call_count == 1

    def test_edge_values(self):
        _, data = _parse_rows(EDGE_CASES["underflow"][0], "m.csv")
        assert data.tolist() == [[0.0, 5e-324]]
        _, data = _parse_rows(EDGE_CASES["signs and bare points"][0], "m.csv")
        assert [v.hex() for v in data[0]] == ["-0x0.0p+0", "0x1.0000000000000p-1",
                                              "0x1.0000000000000p+0", "0x1.9000000000000p+6"]
        assert _parse_rows(EDGE_CASES["header only"][0], "m.csv")[1].shape == (0, 2)
        assert _parse_rows(EDGE_CASES["single column"][0], "m.csv")[1].shape == (2, 1)
        assert _parse_rows(EDGE_CASES["quoted header newline"][0], "m.csv")[0] == ("a\nb", "c")

    def test_errors_keep_row_and_column(self):
        assert parse_outcome(EDGE_CASES["ragged row"][0]) == (
            RaggedRowError, "m.csv: row 2 has 1 fields, expected 2")
        assert parse_outcome(EDGE_CASES["empty cell"][0]) == (
            MalformedNumberError, "m.csv: malformed number '' at row 1, column 'b'")
        error, message = parse_outcome(EDGE_CASES["cr only"][0])
        assert error is MatrixFormatError
        assert message.startswith("m.csv: malformed CSV on line 1: new-line character")

    @pytest.mark.parametrize("text", ["a,b\n", "a,b\r\n\r\n", "\n\na\n\n"])
    def test_empty_body_warns_nothing(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_outcome(text)[1][0] == 0


def format_matrix_per_row(labels, values):
    """The per-row ``csv.writer`` body that ``format_matrix`` replaced."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(labels)
    for row in np.asarray(values):
        writer.writerow(["%.17g" % v for v in row])
    return out.getvalue()


class TestFormatMatrix:
    @pytest.mark.parametrize("values", [
        [[-0.0, 0.0, float("nan")], [float("inf"), float("-inf"), 5e-324],
         [1.0, 0.1, 1 / 3], [1e308, -2.5e-310, 0.30000000000000004]],
        [[0.0], [1.0]],
        np.empty((0, 3)),
        np.random.default_rng(5).random((50, 7)),
        np.random.default_rng(6).integers(0, 2, size=(20, 4)).astype(float),
    ], ids=["specials", "one column", "no rows", "random", "binary"])
    def test_same_bytes_as_per_row_writer(self, values):
        labels = [f"l{j}" for j in range(np.shape(values)[1])]
        labels[0] = 'quoted "name", with comma'
        assert format_matrix(labels, values) == format_matrix_per_row(labels, values)


class TestLabelMatrix:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueRangeError, match=r"row 1.*'b'"):
            LabelMatrix(("a", "b"), np.array([[0, 0.5]]))

    def test_multiclass_needs_one_hot_rows(self):
        with pytest.raises(ValueRangeError, match="row 2"):
            LabelMatrix(("a", "b"), np.array([[1, 0], [1, 1]]), kind="multiclass")

    def test_class_indices(self):
        m = LabelMatrix.from_class_indices([0, 2, 1])
        np.testing.assert_array_equal(m.class_indices(), [0, 2, 1])
        assert m.kind == "multiclass"


class TestEnsembleAverage:
    def test_single_member_is_identity(self):
        m = ProbMatrix(("a",), np.array([[0.3], [0.7]]))
        out = ensemble_average(EnsembleSet((m,)))
        np.testing.assert_array_equal(out.values, m.values)

    def test_two_member_symmetry(self):
        a = ProbMatrix(("a",), np.array([[0.2]]))
        b = ProbMatrix(("a",), np.array([[0.8]]))
        out = ensemble_average(EnsembleSet((a, b)))
        np.testing.assert_allclose(out.values, [[0.5]])

    def test_ten_member_mean(self):
        # independent scalar oracle: sum(0.1*k for k in 0..9) / 10
        expected = sum(0.1 * k for k in range(10)) / 10.0
        members = tuple(
            ProbMatrix(("a",), np.array([[0.1 * k]])) for k in range(10)
        )
        out = ensemble_average(EnsembleSet(members))
        np.testing.assert_allclose(out.values, [[expected]])

    def test_member_order_is_irrelevant(self):
        rng = np.random.default_rng(3)
        members = tuple(ProbMatrix(("a", "b"), rng.random((4, 2))) for _ in range(5))
        fwd = ensemble_average(EnsembleSet(members))
        rev = ensemble_average(EnsembleSet(members[::-1]))
        np.testing.assert_allclose(fwd.values, rev.values)

    def test_average_between_entrywise_min_and_max(self):
        rng = np.random.default_rng(4)
        members = tuple(ProbMatrix(("a", "b"), rng.random((6, 2))) for _ in range(7))
        stack = np.stack([m.values for m in members])
        avg = ensemble_average(EnsembleSet(members)).values
        assert np.all(stack.min(axis=0) <= avg + 1e-15)
        assert np.all(avg <= stack.max(axis=0) + 1e-15)

    def test_shape_mismatch_rejected(self):
        a = ProbMatrix(("a",), np.array([[0.2]]))
        b = ProbMatrix(("a",), np.array([[0.8], [0.1]]))
        with pytest.raises(Exception, match="member 1"):
            EnsembleSet((a, b))


class TestConcatLabels:
    def test_joins_label_sets_over_same_items(self):
        a = ProbMatrix(("x", "y"), np.array([[0.1, 0.2], [0.3, 0.4]]))
        b = ProbMatrix(("z",), np.array([[0.5], [0.6]]))
        joined = concat_labels(a, b)
        assert joined.labels == ("x", "y", "z")
        np.testing.assert_array_equal(
            joined.values, [[0.1, 0.2, 0.5], [0.3, 0.4, 0.6]]
        )

    def test_duplicate_label_across_inputs_rejected(self):
        a = ProbMatrix(("x",), np.array([[0.1]]))
        with pytest.raises(DuplicateLabelError):
            concat_labels(a, a)

    def test_row_count_mismatch_rejected(self):
        a = ProbMatrix(("x",), np.array([[0.1]]))
        b = ProbMatrix(("y",), np.array([[0.1], [0.2]]))
        with pytest.raises(Exception, match="row counts"):
            concat_labels(a, b)


class TestSubstringFilter:
    def test_direct_containment(self):
        assert substring_filter(["fordítás", "alma"], "fordí") == [0]

    def test_empty_corpus(self):
        assert substring_filter([], "fordí") == []

    def test_case_sensitive_by_default(self):
        assert substring_filter(["Fordítás"], "fordí") == []

    def test_case_folding(self):
        texts = ["Fordítás"]
        # independent check: python-level casefold containment
        assert "fordí".casefold() in texts[0].casefold()
        assert substring_filter(texts, "fordí", case_fold=True) == [0]

    def test_nfc_normalization_unifies_compositions(self):
        decomposed = "fordítás"  # i + combining acute
        assert substring_filter([decomposed], "fordí") == [0]

    def test_empty_needle_rejected(self):
        with pytest.raises(Exception):
            substring_filter(["x"], "")


class TestTextRecords:
    def test_jsonl_round_trip(self, tmp_path):
        records = [{"id": 1, "text": "első"}, {"id": 2, "text": "második"}]
        path = str(tmp_path / "t.jsonl")
        save_texts(records, path)
        assert load_texts(path) == records

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 1}\n', encoding="utf-8")
        with pytest.raises(Exception, match="line 1"):
            load_texts(str(path))


class TestAtomicWrite:
    def test_success_replaces_target_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old\n", encoding="utf-8")
        with atomic_write(str(target)) as fh:
            fh.write("new\n")
        assert target.read_text(encoding="utf-8") == "new\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failure_mid_write_leaves_no_file(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_write(str(target)) as fh:
                fh.write("partial\n" * 1000)
                raise RuntimeError("stage failed")
        assert os.listdir(tmp_path) == []

    def test_failure_mid_write_keeps_existing_target(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old\n", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with atomic_write(str(target)) as fh:
                fh.write("partial\n")
                raise RuntimeError("stage failed")
        assert target.read_text(encoding="utf-8") == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_writer_failing_on_a_later_record_writes_nothing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_texts([{"id": 1, "text": "a"}], str(path))
        with pytest.raises(TypeError):
            save_texts([{"id": 2, "text": "b"}, {"id": 3, "text": {"not", "json"}}],
                       str(path))
        assert load_texts(str(path)) == [{"id": 1, "text": "a"}]
        assert os.listdir(tmp_path) == ["t.jsonl"]

    def test_missing_directory_names_the_target(self, tmp_path):
        target = tmp_path / "missing" / "out.txt"
        with pytest.raises(FileNotFoundError) as info:
            with atomic_write(str(target)) as fh:
                fh.write("x")
        assert info.value.filename == str(target)

"""Data model and file I/O tests."""

import ast
import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import json
import os
import re
import shutil
import stat
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test skips itself without hypothesis
    st = None

import labelcal
from labelcal import core, pbt
from labelcal.cli import dispatch
from labelcal.core import (
    LabelcalError,
    LabelMatrix,
    MatrixFormatError,
    ProbMatrix,
    _parse_rows,
    atomic_files,
    format_matrix,
    format_texts,
    load_label_matrix,
    load_prob_matrix,
    load_texts,
    read_input,
    substring_filter,
    text_lines,
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
        with pytest.raises(MatrixFormatError) as info:
            load_prob_matrix(path)
        assert str(info.value) == f"{path}: value 1.5 outside [0, 1] at row 1, column 'b'"

    def test_malformed_number_names_position(self, tmp_path):
        with pytest.raises(MatrixFormatError, match=r"row 2.*'a'"):
            load_prob_matrix(write(tmp_path, "a,b\n0.1,0.2\noops,0.3\n"))

    def test_ragged_row(self, tmp_path):
        with pytest.raises(MatrixFormatError, match="row 1"):
            load_prob_matrix(write(tmp_path, "a,b\n0.1\n"))

    def test_duplicate_label(self, tmp_path):
        with pytest.raises(MatrixFormatError, match="'a'"):
            load_prob_matrix(write(tmp_path, "a,a\n0.1,0.2\n"))

    @pytest.mark.parametrize("text, message", [
        ("a,a\n0.1,0.2\n", "duplicate label name 'a' at columns 1 and 2"),
        ("a,\n0.1,0.2\n", "empty label name at column 2"),
    ])
    def test_header_errors_name_the_file(self, tmp_path, text, message):
        path = write(tmp_path, text)
        for load in (load_prob_matrix, load_label_matrix):
            with pytest.raises(MatrixFormatError) as info:
                load(path)
            assert str(info.value) == f"{path}: {message}"

    def test_tiny_overshoot_is_clamped(self):
        m = ProbMatrix(("a",), np.array([[1.0 + 5e-10], [-5e-10]]))
        assert m.values.max() == 1.0
        assert m.values.min() == 0.0

    def test_large_overshoot_is_an_error(self):
        with pytest.raises(MatrixFormatError):
            ProbMatrix(("a",), np.array([[1.0 + 1e-6]]))

    def test_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        m = ProbMatrix(("x", "y", "z"), rng.random((20, 3)))
        path = tmp_path / "rt.csv"
        path.write_text(format_matrix(m.labels, m.values), encoding="utf-8")
        again = load_prob_matrix(str(path))
        assert format_matrix(again.labels, again.values) == path.read_text(encoding="utf-8")
        np.testing.assert_array_equal(m.values, again.values)

    def test_values_are_read_only(self):
        m = ProbMatrix(("a",), np.array([[0.5]]))
        with pytest.raises(ValueError):
            m.values[0, 0] = 0.1


def parse_file(text):
    """``_parse_rows`` of ``text`` through the reader, from a file named m.csv."""
    with tempfile.TemporaryDirectory() as folder, contextlib.chdir(folder):
        Path("m.csv").write_bytes(text.encode("utf-8"))
        return read_input("m.csv", _parse_rows)


def parse_outcome(text):
    """Labels, shape and value bits of a parse, or its exception type and message."""
    try:
        labels, data = parse_file(text)
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
        MatrixFormatError, "m.csv: malformed number '1_0' at row 1, column 'a'")),
    "fullwidth digit": ("a\n\uff11\n", (
        MatrixFormatError, "m.csv: malformed number '１' at row 1, column 'a'")),
    "arabic-indic digit": ("a\n\u0663\n", (
        MatrixFormatError, "m.csv: malformed number '٣' at row 1, column 'a'")),
    "file separator": ("a\n0.5\x1c\n", (
        MatrixFormatError, "m.csv: malformed number '0.5\\x1c' at row 1, column 'a'")),
    "whitespace-only line": ("a,b\n0.1,0.2\n \n", (
        MatrixFormatError, "m.csv: row 2 has 1 fields, expected 2")),
    "cr only": ("a,b\r0.1,0.2\r", (
        MatrixFormatError, f"m.csv: malformed CSV on line 1: {csv_message('a,b' + chr(13) + '0')}")),
    "crlf": ("a,b\r\n0.1,0.2\r\n0.3,0.4\r\n", read(("a", "b"), [[0.1, 0.2], [0.3, 0.4]])),
    "quoted cells": ('a,b\n"0.1","0.2"\n', read(("a", "b"), [[0.1, 0.2]])),
    "trailing comma": ("a,b\n0.1,0.2,\n", (
        MatrixFormatError, "m.csv: row 1 has 3 fields, expected 2")),
    "nan and inf": ("a,b,c\nnan,inf,-inf\n", read(("a", "b", "c"), [[np.nan, np.inf, -np.inf]])),
    "underflow": ("a,b\n1e-400,5e-324\n", read(("a", "b"), [[0.0, 5e-324]])),
    "header only": ("a,b\n", read(("a", "b"), [])),
    "single column": ("a\n0.5\n0.25\n", read(("a",), [[0.5], [0.25]])),
    "ragged row": ("a,b\n0.1,0.2\n0.3\n", (
        MatrixFormatError, "m.csv: row 2 has 1 fields, expected 2")),
    "empty cell": ("a,b\n0.1,\n", (
        MatrixFormatError, "m.csv: malformed number '' at row 1, column 'b'")),
    "blank lines": ("\na,b\n\n0.1,0.2\n\n0.3,0.4", read(("a", "b"), [[0.1, 0.2], [0.3, 0.4]])),
    "blank body lines": ("a,b\n\n0.1,0.2\n\n\n0.3,0.4\n\n", read(("a", "b"), [[0.1, 0.2], [0.3, 0.4]])),
    "no trailing newline": ("a,b\n0.1,0.2", read(("a", "b"), [[0.1, 0.2]])),
    "nul in header": ("a\x00,b\n0.1,0.2\n", read(("a\x00", "b"), [[0.1, 0.2]])),
    "signs and bare points": ("a,b,c,d\n-0,+.5,1.,1E+2\n", read(("a", "b", "c", "d"),
                                                               [[-0.0, 0.5, 1.0, 100.0]])),
    # changed: the header error names the file, as the row errors do
    "duplicate label": ("a,a\n0.1,0.2\n", (
        MatrixFormatError, "m.csv: duplicate label name 'a' at columns 1 and 2")),
    "quoted header newline": ('"a\nb",c\n0.1,0.2\n', read(("a\nb", "c"), [[0.1, 0.2]])),
    # changed: float() strips the tab, numpy's grammar is printable ASCII
    "tab in a cell": ("a,b\n0.1,\t0.2\n", (
        MatrixFormatError, "m.csv: malformed number '\\t0.2' at row 1, column 'b'")),
    "line break in a quoted cell": ('a,b\n"0.1\n",0.2\n', read(("a", "b"), [[0.1, 0.2]])),
    "bad cell after a quoted line break": ('a,b\n"\n0.1",x\n', (
        MatrixFormatError, "m.csv: malformed number 'x' at row 1, column 'b'")),
    "blank line before a bad row": ("a,b\n\n0.1,x\n", (
        MatrixFormatError, "m.csv: malformed number 'x' at row 1, column 'b'")),
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
            _parse_rows(EDGE_CASES[name][0])
        assert loadtxt.call_count == 1

    def test_edge_values(self):
        _, data = _parse_rows(EDGE_CASES["underflow"][0])
        assert data.tolist() == [[0.0, 5e-324]]
        _, data = _parse_rows(EDGE_CASES["signs and bare points"][0])
        assert [v.hex() for v in data[0]] == ["-0x0.0p+0", "0x1.0000000000000p-1",
                                              "0x1.0000000000000p+0", "0x1.9000000000000p+6"]
        assert _parse_rows(EDGE_CASES["header only"][0])[1].shape == (0, 2)
        assert _parse_rows(EDGE_CASES["single column"][0])[1].shape == (2, 1)
        assert _parse_rows(EDGE_CASES["quoted header newline"][0])[0] == ("a\nb", "c")

    def test_errors_keep_row_and_column(self):
        assert parse_outcome(EDGE_CASES["ragged row"][0]) == (
            MatrixFormatError, "m.csv: row 2 has 1 fields, expected 2")
        assert parse_outcome(EDGE_CASES["empty cell"][0]) == (
            MatrixFormatError, "m.csv: malformed number '' at row 1, column 'b'")
        error, message = parse_outcome(EDGE_CASES["cr only"][0])
        assert error is MatrixFormatError
        assert message.startswith("m.csv: malformed CSV on line 1: new-line character")

    @pytest.mark.parametrize("text", ["a,b\n", "a,b\r\n\r\n", "\n\na\n\n"])
    def test_empty_body_warns_nothing(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_outcome(text)[1][0] == 0

    @pytest.mark.parametrize("body, outcome", [
        ("", None), ("\r", None), ("\n", None), ("\r\n\r", None),
        ("\r" * 4099 + "\n" * 4097 + "\r\n" * 3000, None), ("\n\r" * 50_000, None),
        (" \n", (MatrixFormatError, "m.csv: row 1 has 1 fields, expected 2")),
        ("\r\n\n \r\n", (MatrixFormatError, "m.csv: row 1 has 1 fields, expected 2")),
        ("\r \n", (MatrixFormatError,
                   f"m.csv: malformed CSV on line 2: {csv_message('0' + chr(13) + ' ')}")),
    ], ids=["empty", "cr", "lf", "cr lf cr", "long runs", "long lf cr", "space",
            "space after line ends", "cr space"])
    def test_a_body_of_line_ends_has_no_rows(self, body, outcome):
        """Exactly the bodies the old whole-body count called empty have no
        rows and warn nothing; any other byte takes the parse's path."""
        raw = body.encode()
        line_ends_only = raw.count(b"\n") + raw.count(b"\r") == len(raw)
        assert line_ends_only == (outcome is None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = parse_outcome("a,b\n" + body)
        assert got == (outcome or read(("a", "b"), []))

    @pytest.mark.parametrize("header", ["a\x00,b\n", '"fordí\n\x1c",b\n', "\n\r\na,b\r\n"])
    def test_header_bytes_do_not_count_against_the_body(self, header):
        """The number grammar applies to the body only: a header with bytes
        outside it still has its body read by one np.loadtxt call."""
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            labels, data = _parse_rows(header + "0.5,1\n-0,2e-3\n")
        assert loadtxt.call_count == 1
        assert len(labels) == 2 and data.tobytes() == np.array([[0.5, 1], [-0.0, 2e-3]]).tobytes()


def format_matrix_per_row(labels, values):
    """The per-row ``csv.writer`` body that ``format_matrix`` replaced."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(labels)
    for row in np.asarray(values):
        writer.writerow(["%.17g" % v for v in row])
    return out.getvalue()


# cells that a writer could get wrong: pinned (+0.0, 1.0), next to pinned,
# signed, the smallest subnormal, the largest values, and the non-finite
PINNED_NEIGHBOURS = (0.0, -0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
                     -1.0, 2.0, float("nan"), float("inf"), float("-inf"), 1e308)


class TestFormatMatrix:
    @pytest.mark.parametrize("values", [
        [[-0.0, 0.0, float("nan")], [float("inf"), float("-inf"), 5e-324],
         [1.0, 0.1, 1 / 3], [1e308, -2.5e-310, 0.30000000000000004]],
        [[0.0], [1.0]],
        np.empty((0, 3)),
        np.random.default_rng(5).random((50, 7)),
        np.random.default_rng(6).integers(0, 2, size=(20, 4)).astype(float),
        *(np.random.default_rng(n).choice(PINNED_NEIGHBOURS, size=(n, 50))
          for n in (core._BLOCK_CELLS // 50 - 1, core._BLOCK_CELLS // 50, core._BLOCK_CELLS // 50 + 1)),
    ], ids=["specials", "one column", "no rows", "random", "binary",
            "block - 1", "block", "block + 1"])
    def test_same_bytes_as_per_row_writer(self, values):
        labels = [f"l{j}" for j in range(np.shape(values)[1])]
        labels[0] = 'quoted "name", with comma'
        assert format_matrix(labels, values) == format_matrix_per_row(labels, values)

    def test_no_columns_and_a_vector(self):
        """What np.savetxt wrote: an empty line per row of no cells, and a
        vector, given as its one column, a line per value."""
        assert format_matrix([], np.empty((3, 0))) == "\n" * 4
        column = np.array(PINNED_NEIGHBOURS)[:, None]
        assert format_matrix(["v"], column) == format_matrix_per_row(["v"], column)

    @pytest.mark.skipif(st is None, reason="needs hypothesis")
    def test_drawn_matrices_have_the_per_row_writers_bytes(self):
        """Floats mostly from ``PINNED_NEIGHBOURS``, or int64 ids as in
        folds.csv, in blocks of a few cells, so that 0 and 1 rows, one
        column and the rows of a block -1, +0 and +1 all occur."""
        label = st.sampled_from(['a"b', "c,d", "e\nf", "g"]) | st.text(min_size=1, max_size=3)
        floats = st.sampled_from(PINNED_NEIGHBOURS) | st.sampled_from(PINNED_NEIGHBOURS) | st.floats()
        ids = st.sampled_from([0, 1, -1, 2**53, 2**53 + 1, -(2**63), 2**63 - 1]) | st.integers(
            -(2**63), 2**63 - 1)

        @settings(max_examples=400)
        @given(st.data())
        def check(data):
            block = data.draw(st.integers(1, 12), "block cells")
            k = data.draw(st.integers(1, 5), "columns")
            rows = max(1, block // k)
            n = data.draw(st.sampled_from([0, 1, rows - 1, rows, rows + 1]) | st.integers(0, 30))
            cell, dtype = data.draw(st.sampled_from([(floats, float), (ids, np.int64)]))
            values = np.array(data.draw(st.lists(cell, min_size=n * k, max_size=n * k)),
                              dtype=dtype).reshape(n, k)
            labels = data.draw(st.lists(label, min_size=k, max_size=k))
            with mock.patch.object(core, "_BLOCK_CELLS", block):
                assert format_matrix(labels, values) == format_matrix_per_row(labels, values)

        check()


class TestLabelMatrix:
    def test_rejects_non_binary(self):
        with pytest.raises(MatrixFormatError, match=r"row 1.*'b'"):
            LabelMatrix(("a", "b"), np.array([[0, 0.5]]))

    def test_multiclass_needs_one_hot_rows(self):
        with pytest.raises(MatrixFormatError, match="row 2"):
            LabelMatrix(("a", "b"), np.array([[1, 0], [1, 1]]), kind="multiclass")

    def test_class_indices(self):
        m = LabelMatrix.from_class_indices([0, 2, 1])
        np.testing.assert_array_equal(m.class_indices(), [0, 2, 1])
        assert m.kind == "multiclass"
        assert m.labels == ("class_0", "class_1", "class_2")

    @pytest.mark.parametrize("classes, message", [
        ([0, 1.5], r"^class 1\.5 of item 1 is not an integer within int64$"),
        ([1, -1], r"^class -1 of item 1 is out of range \[0, 2\)$"),
        (["a"], r"^classes must be integers, got <U1$"),
    ])
    def test_class_indices_are_checked_not_cast(self, classes, message):
        with pytest.raises(LabelcalError, match=message):
            LabelMatrix.from_class_indices(classes)
        assert LabelMatrix.from_class_indices([1.0, 0.0]).values.tolist() == [[0, 1], [1, 0]]


class TestMatrixBase:
    def test_both_matrices_keep_their_fields_dtypes_and_read_only_copies(self):
        probs_in, labels_in = np.array([[0.25, 1.0]]), np.array([[1, 0]])
        probs = ProbMatrix(["a", "b"], probs_in)
        labels = LabelMatrix(["a", "b"], labels_in, "multiclass")
        assert [f.name for f in dataclasses.fields(ProbMatrix)] == ["labels", "values"]
        assert [f.name for f in dataclasses.fields(LabelMatrix)] == ["labels", "values", "kind"]
        for matrix, given, dtype in ((probs, probs_in, np.float64), (labels, labels_in, np.int8)):
            assert (matrix.labels, matrix.n_items, matrix.n_labels) == (("a", "b"), 1, 2)
            assert matrix.values.dtype == dtype and not matrix.values.flags.writeable
            assert not np.shares_memory(matrix.values, given)
            with pytest.raises(dataclasses.FrozenInstanceError):
                matrix.values = given
        assert repr(labels).startswith("LabelMatrix(labels=('a', 'b'), values=array(")
        assert repr(probs).startswith("ProbMatrix(labels=('a', 'b'), values=array(")


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
        with atomic_files([path]) as (fh,):
            fh.write(format_texts(records))
        assert load_texts(path) == records

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 1}\n', encoding="utf-8")
        with pytest.raises(Exception, match="line 1"):
            load_texts(str(path))


# Files with a byte that is not UTF-8, and the reader's message for them
# under the name m.csv: the line counts \n, \r\n and \r as line ends.
BAD_UTF8 = {
    "bad byte at offset 0": (b"\xffa,b\n0.1,0.2\n",
                             "line 1 at byte offset 0: invalid start byte"),
    "sequence cut short at the end": (b"a,b\n0.1,0.2\n\xc3\xa9\xc3",
                                      "line 3 at byte offset 14: unexpected end of data"),
    "after a lone cr": (b"a,b\r\n0.1\r\xff\n",
                        "line 3 at byte offset 9: invalid start byte"),
    "inside a quoted header": (b'"a\nb\xe9",c\n0.1,0.2\n',
                               "line 2 at byte offset 4: invalid continuation byte"),
}


def generator_text_lines(text):
    """The splitter ``text_lines`` replaced: one line at a time, by ``find``."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    start = 0
    while (end := text.find("\n", start)) >= 0:
        yield text[start:end]
        start = end + 1
    if start < len(text):
        yield text[start:]


class TestReadInput:
    @pytest.mark.parametrize("data, message", BAD_UTF8.values(), ids=BAD_UTF8.keys())
    @pytest.mark.parametrize("load", [load_prob_matrix, load_label_matrix, load_texts])
    def test_bad_byte_is_named_by_path_line_and_offset(self, tmp_path, monkeypatch, load,
                                                       data, message):
        monkeypatch.chdir(tmp_path)
        Path("m.csv").write_bytes(data)
        with pytest.raises(LabelcalError) as info:
            load("m.csv")
        assert type(info.value) is LabelcalError
        assert str(info.value) == f"m.csv: invalid UTF-8 on {message}"

    def test_parse_gets_the_text_with_its_line_ends(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes("a\r\nb\rc\x85d\u2028\n".encode("utf-8"))
        assert read_input(path, lambda text: text) == "a\r\nb\rc\x85d\u2028\n"

    def test_errors_of_parse_name_the_path_and_keep_their_type(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"x")

        def broken(text):
            raise ValueError("not ours")

        for error in (MatrixFormatError, LabelcalError):
            def bad_row(text):
                raise error("row 2")

            with pytest.raises(LabelcalError, match=f"^{re.escape(str(path))}: row 2$") as info:
                read_input(path, bad_row)
            assert info.type is error
        with pytest.raises(ValueError, match="^not ours$"):  # not a data error: no path
            read_input(path, broken)

    def test_text_lines_end_at_lf_crlf_and_cr_only(self):
        text = "a\rb\r\nc\n\nd\fe\vf\x1cg\x85h\u2028i\u2029j\r\r\n"
        assert list(text_lines(text)) == [
            "a", "b", "c", "", "d\fe\vf\x1cg\x85h\u2028i\u2029j", ""]
        assert list(text_lines("")) == []
        assert list(text_lines("a")) == ["a"]

    @pytest.mark.parametrize("text", [
        "a\nb", "a\nb\n", "a\r\nb", "a\r\nb\r\n", "a\rb", "a\rb\r", "a\r\r\nb", "\r\r\n",
        "\r", "\n", "\n\n", "", "a", "a\n\n", "\na"])
    def test_text_lines_equal_the_generator_they_replaced(self, text):
        assert text_lines(text) == list(generator_text_lines(text))

    def test_only_the_reader_opens_input_files(self):
        # an AST scan of the package: every open() (also os/io/Path .open)
        # and read_text/read_bytes call, by module, enclosing function and mode
        found = set()
        for path in sorted(Path(labelcal.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text("utf-8"))
            scope = {tree: "<module>"}
            for node in ast.walk(tree):  # parents before children
                for child in ast.iter_child_nodes(node):
                    scope[child] = (child.name if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope[node])
            for call in filter(lambda node: isinstance(node, ast.Call), ast.walk(tree)):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                if name in ("read_text", "read_bytes"):
                    found.add((path.stem, scope[call], name))
                elif name == "open":
                    mode = call.args[1] if len(call.args) > 1 else next(
                        (k.value for k in call.keywords if k.arg == "mode"), None)
                    found.add((path.stem, scope[call],
                               mode.value if isinstance(mode, ast.Constant) else mode))
        assert found == {
            ("core", "read_input", "rb"),  # the reader, which also digests for the manifest
            ("core", "atomic_files", "x"),  # the writer
            # the cache of parsed matrices: the reader's own source for the
            # key, an entry's load and its store
            ("core", "_cache_entry", "rb"),
            ("core", "_cache_load", "rb"),
            ("core", "_cache_store", "xb"),
        }


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """The folder of an empty cache of parsed matrices, not yet made."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "labelcal"


def as_parsed(labels, values):
    return labels, values


def run_load(path, build=as_parsed):
    """``_load_matrix`` as a command-line run calls it, digesting its input,
    and the number of parses it made: 0 on a cache hit."""
    token = core.input_digests.set({})
    try:
        with mock.patch.object(core, "_parse_rows", wraps=_parse_rows) as parse:
            return core._load_matrix(str(path), build), parse.call_count
    finally:
        core.input_digests.reset(token)


def run_outcome(path, build=as_parsed):
    try:
        return run_load(path, build)[0]
    except Exception as exc:
        return type(exc), str(exc)


def bits(parsed):
    labels, values = parsed
    return labels, values.dtype, values.shape, values.tobytes()


def entry_of(path):
    """The cache file of the matrix file at ``path``."""
    return Path(core._cache_entry(hashlib.sha256(Path(path).read_bytes()).hexdigest()))


# every edge text that parses, and one with ties
PARSED = {name: text for name, (text, outcome) in EDGE_CASES.items()
          if not isinstance(outcome[0], type)}
PARSED["ties"] = "a,b,c\n0.5,0.5,0.5\n0.5,0.5,0.5\n0,0,0\n"
# every edge text that fails, and texts that parse but fail a matrix's checks
FAILED = {name: (text, as_parsed) for name, (text, outcome) in EDGE_CASES.items()
          if isinstance(outcome[0], type)}
FAILED.update({
    "probability above 1": ("a,b\n0.1,1.5\n", ProbMatrix),
    "nan probability": ("a,b\nnan,0.5\n", ProbMatrix),
    "annotation of 0.5": ("a,b\n1,0.5\n", LabelMatrix),
    "multiclass row of two": ("a,b\n1,1\n", lambda labels, values: LabelMatrix(
        labels, values, "multiclass")),
})


class TestMatrixCache:
    @pytest.mark.parametrize("text", PARSED.values(), ids=PARSED.keys())
    def test_a_hit_gives_the_parse_bit_for_bit(self, tmp_path, cache, text):
        path = write(tmp_path, text)
        expected = bits(_parse_rows(text))
        first, parses = run_load(path)
        assert (bits(first), parses) == (expected, 1)
        assert os.listdir(cache) == [entry_of(path).name]
        stored = np.load(entry_of(path), allow_pickle=False)  # one plain array: the values
        assert bits((expected[0], stored)) == expected
        again, parses = run_load(path)
        assert (bits(again), parses) == (expected, 0)

    @pytest.mark.parametrize("text, build", FAILED.values(), ids=FAILED.keys())
    def test_a_failed_input_fails_alike_on_a_rerun_and_is_never_stored(
            self, tmp_path, cache, text, build):
        path = write(tmp_path, text)
        first = run_outcome(path, build)
        assert isinstance(first[0], type) and issubclass(first[0], LabelcalError)
        assert run_outcome(path, build) == first
        assert not cache.exists()

    def test_a_stored_matrix_that_fails_another_check_fails_alike(self, tmp_path, cache):
        # stored by a probability load, then read as annotations: the hit
        # goes through the same checks as a parse
        path = write(tmp_path, "a,b\n0.5,1\n")
        plain = run_outcome(path, LabelMatrix)
        run_load(path, ProbMatrix)
        assert run_outcome(path, LabelMatrix) == plain
        assert plain == (MatrixFormatError, f"{path}: annotation entry 0.5 is not 0 or 1 "
                                             "at row 1, column 'a'")

    @pytest.mark.parametrize("damage", [
        lambda good: good[: len(good) // 2],
        lambda good: good[:-1],
        lambda good: good + b"\0",
        lambda good: b"",
        lambda good: bytes(range(256)) * 4,
        lambda good: b"PK\x03\x04" + good,  # what np.load would open as an npz archive
        # an entry of the earlier format: labels as JSON bytes, then values
        lambda good: npy_bytes(np.zeros(3, np.uint8), np.zeros((1, 2))),  # not JSON
        lambda good: npy_bytes(np.frombuffer(b'"ab"', np.uint8), np.zeros((1, 2))),
        lambda good: npy_bytes(np.frombuffer(b'["a"]', np.uint8), np.zeros((1, 2))),
        lambda good: npy_bytes(np.frombuffer(b'["a","b"]', np.uint8), np.zeros(2)),
        lambda good: npy_bytes(np.frombuffer(b'["a","b"]', np.uint8),
                               np.zeros((1, 2), np.float32)),
        lambda good: npy_bytes(np.frombuffer(b'["a",2]', np.uint8), np.zeros((1, 2))),
        lambda good: npy_header((10**12,), "|u1"),  # a size no memory holds
        lambda good: npy_bytes(np.frombuffer(b'["a","b"]', np.uint8)) + npy_header(
            (10**12, 2), "<f8"),
        # one array, whose columns the header row of the input must match
        lambda good: npy_bytes(np.zeros((2, 3))),
        lambda good: npy_bytes(np.zeros((2, 1))),
        lambda good: npy_bytes(np.zeros(4)),
        lambda good: npy_bytes(np.zeros((2, 1, 2))),
        lambda good: npy_bytes(np.zeros((2, 2), np.float32)),
        lambda good: good + good,
    ], ids=["half", "last byte short", "a byte over", "empty", "garbage", "zip magic",
            "labels not json", "labels not a list", "too few labels", "values not 2-d",
            "values not float64", "label not a string", "huge labels", "huge values",
            "more columns than labels", "fewer columns than labels", "one 1-d array",
            "one 3-d array", "one float32 array", "two arrays"])
    def test_a_damaged_entry_is_a_miss_and_is_rewritten(self, tmp_path, cache, damage):
        path = write(tmp_path, "a,b\n0.5,0.25\n1,-0\n")
        first, _ = run_load(path)
        entry = entry_of(path)
        good = entry.read_bytes()
        entry.write_bytes(damage(good))
        again, parses = run_load(path)
        assert (bits(again), parses) == (bits(first), 1)
        assert entry.read_bytes() == good

    @pytest.mark.parametrize("block", [
        lambda cache: cache.parent.write_bytes(b""),  # XDG_CACHE_HOME is a file
        lambda cache: (cache.parent.mkdir(), cache.write_bytes(b"")),  # so is the folder
        lambda cache: entry_of("probs.csv").mkdir(parents=True),  # the entry is a folder
    ], ids=["base is a file", "folder is a file", "entry is a folder"])
    def test_a_cache_that_cannot_be_used_changes_no_output_or_exit_code(
            self, tmp_path, cache, monkeypatch, capsys, block):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(5)
        Path("probs.csv").write_text(format_matrix(["a", "b"], rng.random((40, 2))), "utf-8")
        Path("bad.csv").write_text("a,b\n0.5,2\n", "utf-8")
        truncate = ["truncate", "--p-low", "0.2", "--p-high", "0.6", "--probs"]
        assert dispatch([*truncate, "probs.csv", "--out", "expected.csv"]) == 0
        shutil.rmtree(cache.parent)
        block(cache)
        for run in range(2):
            assert dispatch([*truncate, "probs.csv", "--out", f"q{run}.csv"]) == 0
            assert Path(f"q{run}.csv").read_bytes() == Path("expected.csv").read_bytes()
            assert dispatch([*truncate, "bad.csv", "--out", "r.csv"]) == 2
            assert capsys.readouterr().err == (
                "labelcal: error: bad.csv: value 2.0 outside [0, 1] at row 1, column 'b'\n")
        left = [p for p in cache.parent.rglob("*") if p.is_file() and p.stat().st_size]
        assert left == []  # no entry and no temporary file

    def test_a_different_reader_or_numpy_misses(self, tmp_path, cache, monkeypatch):
        path = write(tmp_path, "a,b\n0.5,0.25\n")
        run_load(path)
        reader = tmp_path / "core.py"
        reader.write_bytes(Path(core.__file__).read_bytes() + b"\n")
        monkeypatch.setattr(core, "__file__", str(reader))
        assert [run_load(path)[1] for _ in range(2)] == [1, 0]
        monkeypatch.setattr(np, "__version__", "0.0.0")
        assert [run_load(path)[1] for _ in range(2)] == [1, 0]
        assert len(os.listdir(cache)) == 3

    def test_the_budget_evicts_the_oldest_entries_first(self, tmp_path, cache, monkeypatch):
        paths = [write(tmp_path, f"a,b\n0.{i},0.5\n", f"m{i}.csv") for i in range(5)]
        entries = [entry_of(path) for path in paths]
        for age, i in enumerate([2, 0, 1]):  # stored in this order, then aged so
            run_load(paths[i])
            os.utime(entries[i], ns=(age * 10**9, age * 10**9))
        monkeypatch.setattr(core, "_CACHE_BUDGET", 3 * entries[0].stat().st_size)
        run_load(paths[3])
        assert sorted(os.listdir(cache)) == sorted(entries[i].name for i in (0, 1, 3))
        os.utime(entries[1], ns=(0, 0))
        run_load(paths[4])
        assert sorted(os.listdir(cache)) == sorted(entries[i].name for i in (0, 3, 4))
        monkeypatch.setattr(core, "_CACHE_BUDGET", 0)  # the new entry cannot fit: it is not kept
        run_load(paths[2])
        assert sorted(os.listdir(cache)) == sorted(entries[i].name for i in (0, 3, 4))

    def test_an_entry_larger_than_the_budget_is_not_kept_and_deletes_nothing(
            self, tmp_path, cache, monkeypatch):
        small = [write(tmp_path, format_matrix(["a", "b"], np.full((16, 2), i / 4)), f"s{i}.csv")
                 for i in range(2)]
        big = write(tmp_path, format_matrix(["a", "b"], np.full((500, 2), 0.5)), "big.csv")
        monkeypatch.setattr(core, "_CACHE_BUDGET", 4096)
        for path in small:
            run_load(path)
        kept = sorted(entry_of(path).name for path in small)
        assert all(entry_of(path).stat().st_size < 400 for path in small)
        for _ in range(2):  # 8,000 bytes of values: a miss each time, stored never
            assert run_load(big)[1] == 1
            assert sorted(os.listdir(cache)) == kept
        # an entry of exactly the budget fits, and the others go to make room
        monkeypatch.setattr(core, "_CACHE_BUDGET", len(npy_bytes(np.full((500, 2), 0.5))))
        run_load(big)
        assert os.listdir(cache) == [entry_of(big).name]
        assert entry_of(big).stat().st_size == core._CACHE_BUDGET

    def test_a_hit_counts_as_a_use_for_eviction(self, tmp_path, cache, monkeypatch):
        # A is stored before B, then read: the store of C deletes B, the least recently used
        paths = [write(tmp_path, f"a,b\n0.{i},0.5\n", f"m{i}.csv") for i in range(3)]
        a, b, c = (entry_of(path) for path in paths)
        for age, (path, entry) in enumerate(zip(paths, (a, b))):
            run_load(path)
            os.utime(entry, ns=(age * 10**9, age * 10**9))
        monkeypatch.setattr(core, "_CACHE_BUDGET", 2 * a.stat().st_size)
        assert run_load(paths[0])[1] == 0
        run_load(paths[2])
        assert sorted(os.listdir(cache)) == sorted([a.name, c.name])
        with mock.patch.object(os, "utime", side_effect=PermissionError):  # a read-only cache
            assert run_load(paths[0])[1] == 0

    def test_the_cache_is_under_xdg_cache_home_else_the_home_directory(
            self, tmp_path, cache, monkeypatch):
        path = write(tmp_path, "a\n0.5\n")
        run_load(path)
        assert os.listdir(cache) == [entry_of(path).name]
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        home = tmp_path / "home" / ".cache" / "labelcal"
        for value in ("", "relative/cache", None):
            if value is None:
                monkeypatch.delenv("XDG_CACHE_HOME")
            else:
                monkeypatch.setenv("XDG_CACHE_HOME", value)
            assert entry_of(path).parent == home
        run_load(path)
        assert os.listdir(home) == [entry_of(path).name]

    def test_library_calls_and_other_inputs_never_touch_the_cache(
            self, tmp_path, cache, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write(tmp_path, "a,b\n0,1\n")
        with mock.patch.object(core, "_parse_rows", wraps=_parse_rows) as parse:
            load_prob_matrix(path)
            load_label_matrix(path)
        assert parse.call_count == 2
        Path("texts.jsonl").write_text('{"id": 1, "text": "alma"}\n', "utf-8")
        Path("scores.txt").write_text("0.5\n0.25\n1\n", "utf-8")
        assert dispatch(["filter", "--texts", "texts.jsonl", "--needle", "al",
                         "--out", "kept.jsonl"]) == 0
        assert dispatch(["size-curve", "--scores", "scores.txt", "--sizes", "1", "2", "1",
                         "--reps", "2", "--out", "curve.json"]) == 0
        assert not cache.parent.exists()

    def test_a_rerun_reads_the_cache_and_writes_the_same_outputs(
            self, tmp_path, cache, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(6)
        Path("probs.csv").write_text(format_matrix(["a", "b", "c"], rng.random((50, 3))), "utf-8")
        argv = ["sample", "--probs", "probs.csv", "--n", "10", "--out"]
        with mock.patch.object(core, "_parse_rows", wraps=_parse_rows) as parse:
            for out in ("first.json", "second.json"):
                assert dispatch([*argv, out]) == 0
        assert parse.call_count == 1
        assert Path("first.json").read_bytes() == Path("second.json").read_bytes()
        manifests = [json.loads(Path(f"{out}.manifest.json").read_text("utf-8"))
                     for out in ("first.json", "second.json")]
        for manifest in manifests:
            del manifest["duration_seconds"], manifest["parameters"]["out"]
        assert manifests[0] == manifests[1]


def npy_bytes(*arrays):
    """``arrays`` as ``.npy`` files, one after another."""
    out = io.BytesIO()
    for array in arrays:
        np.lib.format.write_array(out, array)
    return out.getvalue()


def npy_header(shape, descr):
    """An ``.npy`` header that claims ``shape``, with no data after it."""
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        out, {"descr": descr, "fortran_order": False, "shape": shape})
    return out.getvalue()


class TestDistinct:
    @pytest.mark.parametrize("values", [
        [3, 1, 2, 3, 1], [], [[2, 1], [1, 0]], [0.5, np.nan, -np.inf, np.nan, 0.5, np.inf],
        [-0.0, 0.0, 1.0], np.arange(-5, 5, dtype=np.int8), [np.nan, np.nan],
    ], ids=["ints", "empty", "2-d", "nans and infinities", "signed zeros", "int8", "all nan"])
    def test_the_values_of_np_unique(self, values):
        got, expected = core.distinct(np.asarray(values)), np.unique(np.asarray(values))
        assert (got.dtype, got.shape, got.tobytes()) == (
            expected.dtype, expected.shape, expected.tobytes())


class TestQuantile:
    @pytest.mark.parametrize("n", [1, 2, 3, 20, 1001])
    @pytest.mark.parametrize("kind", ["ints", "floats", "ties"])
    def test_the_bits_of_np_quantile(self, n, kind):
        rng = np.random.default_rng(n)
        if kind == "ints":
            values = rng.integers(-10**6, 10**6, n)
        elif kind == "floats":  # magnitudes 1e-300 to 1e300
            values = rng.normal(size=n) * 10.0 ** rng.integers(-300, 301, n)
        else:
            values = rng.choice([-1e300, -2.5, -0.0, 1e-300, 3.0, 3.0, 1e300], n)
        cuts = 1.0 - pbt.POSITIVE_RATE / 2.0 ** np.arange(12)  # as make_toy_dataset takes them
        exact = np.arange(min(n, 9)) / max(n - 1, 1)  # k / (n - 1)
        qs = [0.0, 1.0, 0.95, 0.5, 0.25, *cuts, *exact, *rng.random(20)]
        assert n <= 2 or any(((n - 1) * q).is_integer() and 0 < q < 1 for q in qs)
        for q in qs:
            got, expected = core.quantile(values, q), float(np.quantile(values, q))
            assert got.hex() == expected.hex(), q

    def test_both_signed_zeros_may_give_the_other_zero(self):
        # np.sort and numpy's partition order -0.0 and +0.0 differently
        values = np.array([0.0, -0.0, -1.0, -0.0])
        got, expected = core.quantile(values, 0.95), float(np.quantile(values, 0.95))
        assert (got.hex(), expected.hex()) == ("-0x0.0p+0", "0x0.0p+0")
        assert core.quantile(np.array([-0.0]), 0.5).hex() == "-0x0.0p+0"  # one zero keeps its sign


class TestAtomicWrite:
    def test_success_replaces_target_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old\n", encoding="utf-8")
        with atomic_files([target]) as (fh,):
            fh.write("new\n")
        assert target.read_text(encoding="utf-8") == "new\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failure_mid_write_leaves_no_file(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_files([target]) as (fh,):
                fh.write("partial\n" * 1000)
                raise RuntimeError("stage failed")
        assert os.listdir(tmp_path) == []

    def test_failure_mid_write_keeps_existing_target(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old\n", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with atomic_files([target]) as (fh,):
                fh.write("partial\n")
                raise RuntimeError("stage failed")
        assert target.read_text(encoding="utf-8") == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_writer_failing_on_a_later_record_writes_nothing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with atomic_files([path]) as (fh,):
            fh.write(format_texts([{"id": 1, "text": "a"}]))
        with pytest.raises(TypeError):
            with atomic_files([path]) as (fh,):
                fh.write(format_texts([{"id": 2, "text": "b"},
                                       {"id": 3, "text": {"not", "json"}}]))
        assert load_texts(str(path)) == [{"id": 1, "text": "a"}]
        assert os.listdir(tmp_path) == ["t.jsonl"]

    def test_missing_directory_names_the_target(self, tmp_path):
        target = tmp_path / "missing" / "out.txt"
        with pytest.raises(FileNotFoundError) as info:
            with atomic_files([target]) as (fh,):
                fh.write("x")
        assert info.value.filename == str(target)


class TestAtomicFiles:
    def test_success_moves_every_file_in_untranslated(self, tmp_path):
        targets = [tmp_path / name for name in ("a.txt", "b.txt", "c.txt")]
        with atomic_files(targets) as handles:
            for fh, text in zip(handles, ("a\n", "b\r\n", "")):
                fh.write(text)
        assert [t.read_bytes() for t in targets] == [b"a\n", b"b\r\n", b""]
        assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt", "c.txt"]

    def test_failed_replace_removes_the_files_already_moved_in(self, tmp_path):
        targets = [str(tmp_path / name) for name in ("a.txt", "b.txt", "c.txt")]
        replace = os.replace

        def fail_on_second(src, dst):
            if dst == targets[1]:
                raise PermissionError(errno.EACCES, "Permission denied", src)
            replace(src, dst)

        with mock.patch("os.replace", side_effect=fail_on_second):
            with pytest.raises(PermissionError) as info:
                with atomic_files(targets) as handles:
                    for fh, text in zip(handles, "abc"):
                        fh.write(text)
        assert info.value.filename == targets[1]  # the target, not the temporary file
        assert os.listdir(tmp_path) == []

    def test_failed_replace_gives_an_existing_target_its_old_file_back(self, tmp_path):
        targets = [str(tmp_path / name) for name in ("a.txt", "b.txt", "c.txt")]
        with open(targets[0], "w", encoding="utf-8") as fh:
            fh.write("old a\n")
        replace = os.replace

        def fail_on_second(src, dst):
            if dst == targets[1]:
                raise PermissionError(errno.EACCES, "Permission denied", src)
            replace(src, dst)

        with mock.patch("os.replace", side_effect=fail_on_second):
            with pytest.raises(PermissionError):
                with atomic_files(targets) as handles:
                    for fh, text in zip(handles, "abc"):
                        fh.write(text)
        assert os.listdir(tmp_path) == ["a.txt"]  # no temporary file or kept link is left
        with open(targets[0], encoding="utf-8") as fh:
            assert fh.read() == "old a\n"

    def test_success_removes_the_kept_old_files(self, tmp_path):
        target = tmp_path / "a.txt"
        target.write_text("old\n", encoding="utf-8")
        with atomic_files([target]) as (fh,):
            fh.write("new\n")
        assert target.read_text(encoding="utf-8") == "new\n"
        assert os.listdir(tmp_path) == ["a.txt"]

    def test_failed_open_removes_the_files_already_made(self, tmp_path):
        targets = [str(tmp_path / "a.txt"), str(tmp_path / "missing" / "b.txt")]
        with pytest.raises(FileNotFoundError) as info:
            with atomic_files(targets):
                pass
        assert info.value.filename == targets[1]
        assert os.listdir(tmp_path) == []

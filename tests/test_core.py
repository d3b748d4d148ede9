"""Data model and file I/O tests."""

import ast
import contextlib
import csv
import errno
import io
import os
import re
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
from labelcal import core
from labelcal.core import (
    DuplicateLabelError,
    EnsembleSet,
    LabelcalError,
    LabelMatrix,
    MalformedNumberError,
    MatrixFormatError,
    ProbMatrix,
    RaggedRowError,
    ValueRangeError,
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

    @pytest.mark.parametrize("body, outcome", [
        ("", None), ("\r", None), ("\n", None), ("\r\n\r", None),
        ("\r" * 4099 + "\n" * 4097 + "\r\n" * 3000, None), ("\n\r" * 50_000, None),
        (" \n", (RaggedRowError, "m.csv: row 1 has 1 fields, expected 2")),
        ("\r\n\n \r\n", (RaggedRowError, "m.csv: row 1 has 1 fields, expected 2")),
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
        vector as one column."""
        assert format_matrix([], np.empty((3, 0))) == "\n" * 4
        vector = np.array(PINNED_NEIGHBOURS)
        assert format_matrix(["v"], vector) == format_matrix_per_row(["v"], vector[:, None])

    @pytest.mark.skipif(st is None, reason="needs hypothesis")
    def test_drawn_matrices_have_the_per_row_writers_bytes(self):
        """Floats mostly from ``PINNED_NEIGHBOURS``, or int64 ids as in
        folds.csv, in blocks of a few cells, so that 0 and 1 rows, one
        column, a vector and the rows of a block -1, +0 and +1 all occur."""
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
            expected = format_matrix_per_row(labels, values)
            if k == 1 and data.draw(st.booleans(), "as a vector"):
                values = values[:, 0]
            with mock.patch.object(core, "_BLOCK_CELLS", block):
                assert format_matrix(labels, values) == expected

        check()


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


class TestEnsembleSet:
    def test_shape_mismatch_rejected(self):
        a = ProbMatrix(("a",), np.array([[0.2]]))
        b = ProbMatrix(("a",), np.array([[0.8], [0.1]]))
        with pytest.raises(Exception, match="member 1"):
            EnsembleSet((a, b))


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

        def ragged(text):
            raise RaggedRowError("row 2")

        def broken(text):
            raise ValueError("not ours")

        with pytest.raises(RaggedRowError, match=f"^{re.escape(str(path))}: row 2$"):
            read_input(path, ragged)
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
        }


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

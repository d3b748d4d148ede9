"""Property tests: invariants checked on generated inputs."""

import contextlib
import csv
import io
import json
import math
import os
import re
import tempfile
from collections import Counter
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from scipy.special import logsumexp as scipy_logsumexp  # noqa: E402
from scipy.stats import rankdata  # noqa: E402

from labelcal._util import average_ranks, logsumexp  # noqa: E402
from labelcal.calibration import (  # noqa: E402
    _mean_count_error,
    grid_search_thresholds,
    threshold_grid,
)
from labelcal.cli import dispatch  # noqa: E402
from labelcal.core import (  # noqa: E402
    LabelMatrix,
    MalformedNumberError,
    ProbMatrix,
    RaggedRowError,
    _bow_tokens,
    bow_match_many,
    text_lines,
)
from labelcal.folds import (  # noqa: E402
    _CHUNK, _SLAB, candidate_partition, partition_score, stratified_kfold,
)
from labelcal import core, segmentation  # noqa: E402
from labelcal.relnet import RelationNetwork, kamada_kawai_layout  # noqa: E402
from labelcal.segmentation import (  # noqa: E402
    TSV_COLUMNS,
    LineBox,
    OcrFormatError,
    OcrTokens,
    ParagraphRecord,
    _k_distance_eps,
    dbscan,
    paragraphs_from_tokens,
    parse_ocr_tsv,
)
from test_core import parse_file  # noqa: E402
from test_folds import search_oracle  # noqa: E402
from test_segmentation import dense_dbscan, dense_k_distance_eps, distinct  # noqa: E402

STEP = 0.1
LOWS, HIGHS = threshold_grid((0.0, 0.5), (0.5, 1.0), STEP)
GRID_POINTS = sorted(set(LOWS.tolist() + HIGHS.tolist()))


@st.composite
def grid_valued_instances(draw):
    """Small (values, truth) pairs whose values are all grid thresholds,
    so ties and values exactly on a threshold occur in every run."""
    n = draw(st.integers(1, 12))
    n_labels = draw(st.integers(1, 3))
    cells = st.lists(st.sampled_from(GRID_POINTS), min_size=n * n_labels,
                     max_size=n * n_labels)
    values = np.array(draw(cells)).reshape(n, n_labels)
    bits = st.lists(st.integers(0, 1), min_size=n * n_labels, max_size=n * n_labels)
    y = np.array(draw(bits)).reshape(n, n_labels)
    y[0] = 1
    return values, y


@settings(max_examples=150, deadline=None)
@given(grid_valued_instances())
def test_grid_search_equals_exhaustive_direct_evaluation(instance):
    values, y = instance
    names = tuple(f"l{j}" for j in range(values.shape[1]))
    t, err = grid_search_thresholds(
        ProbMatrix(names, values), LabelMatrix(names, y), grid_step=STEP
    )
    true_counts = y.sum(axis=0).astype(np.float64)
    pairs = [(lo, hi) for lo in LOWS for hi in HIGHS if lo <= hi]
    e, best = min(
        (_mean_count_error(values, true_counts, lo, hi), p)
        for p, (lo, hi) in enumerate(pairs)
    )
    assert (t.p_low, t.p_high) == pairs[best]
    assert err == e


@st.composite
def float_matrices(draw):
    """Small float matrices; values from a small grid make ties and tied
    maxima, the others reach magnitudes near 700 and -inf."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    grid = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
    wide = st.one_of(
        st.floats(-750.0, 750.0),
        st.sampled_from([-np.inf, -700.0, -1.0, 0.0, 0.5, 2.0, 700.0]),
    )
    cells = st.lists(draw(st.sampled_from([grid, wide])),
                     min_size=rows * cols, max_size=rows * cols)
    return np.array(draw(cells), dtype=np.float64).reshape(rows, cols)


@settings(max_examples=300, deadline=None)
@given(float_matrices())
def test_numpy_ports_equal_scipy_bit_for_bit(x):
    for row in x:
        assert np.array_equal(average_ranks(row), rankdata(row))
    for axis in (None, 1):
        assert np.array_equal(
            logsumexp(x, axis=axis), scipy_logsumexp(x, axis=axis), equal_nan=True
        )


def counter_loop_match(quote, paragraphs):
    """The per-quote loop that ``bow_match_many`` replaced: every
    paragraph re-tokenized into a Counter, scored, strict ``<`` kept."""
    quote_counts = Counter(_bow_tokens(quote))
    q_norm = np.sqrt(sum(v * v for v in quote_counts.values()))
    best_index, best_distance = 0, np.inf
    for i, text in enumerate(paragraphs):
        counts = Counter(_bow_tokens(text))
        norm = np.sqrt(sum(v * v for v in counts.values()))
        if norm == 0.0:
            distance = 1.0
        else:
            dot = sum(quote_counts[t] * c for t, c in counts.items())
            distance = max(0.0, 1.0 - dot / (q_norm * norm))
        if distance < best_distance:
            best_index, best_distance = i, distance
    return best_index, float(best_distance)


# mixed case and non-ASCII words (capital sigma and dotted capital I are
# lowercased token by token); the last three hold no token
WORDS = ["alma", "Alma", "ALMA", "körte", "KÖRTE", "straße", "ω", "Ω", "ΟΔΟΣ", "İz", "x1",
         "12", "a_b", "—", "...", "_"]


@st.composite
def match_corpora(draw):
    """Quotes and paragraphs over a small vocabulary, so shared tokens,
    equal bags and exact ties are common; some paragraphs are repeated,
    some have no token, and quote-only words give quotes sharing none."""
    text = st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join)
    paragraphs = draw(st.lists(text, min_size=1, max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        copy = paragraphs[draw(st.integers(0, len(paragraphs) - 1))]
        paragraphs.insert(draw(st.integers(0, len(paragraphs))), copy)
    quote = st.lists(st.sampled_from(WORDS + ["zzz", "Qqq"]), min_size=1, max_size=6)
    quotes = draw(st.lists(quote.map(" ".join).filter(_bow_tokens), min_size=1, max_size=4))
    return quotes, paragraphs


# at most 15 paragraphs, so every quote token is packed
@settings(max_examples=300)
@given(match_corpora())
def test_bow_match_many_equals_counter_loop(corpus):
    quotes, paragraphs = corpus
    got = bow_match_many(quotes, paragraphs)
    want = [counter_loop_match(q, paragraphs) for q in quotes]
    assert [(i, d.hex()) for i, d in got] == [(i, d.hex()) for i, d in want]


# a share of 1 packs only a token in more paragraphs than there are: none
@settings(max_examples=300)
@given(match_corpora())
def test_bow_match_many_unpacked_equals_counter_loop(corpus):
    quotes, paragraphs = corpus
    with mock.patch.object(core, "_PACKED_SHARE", 1):
        got = bow_match_many(quotes, paragraphs)
    want = [counter_loop_match(q, paragraphs) for q in quotes]
    assert [(i, d.hex()) for i, d in got] == [(i, d.hex()) for i, d in want]


@pytest.mark.parametrize("seed", range(5))
def test_bow_match_many_mixes_packed_and_added_tokens(seed):
    """Sixty paragraphs: a token in more than 3 of them is packed, a rarer
    one added posting by posting, and one count of 300 needs two bytes."""
    rng = np.random.default_rng(seed)
    words = [f"w{k}" for k in range(40)]
    weights = 1.0 / np.arange(1, 41)
    paragraphs = [" ".join(rng.choice(words, size=rng.integers(0, 12), p=weights / weights.sum()))
                  for _ in range(60)]
    paragraphs[int(rng.integers(60))] += " w0" * 300
    quotes = [" ".join(rng.choice(words, size=rng.integers(1, 8))) for _ in range(20)]
    quotes.append(paragraphs[7] + " w0 w0")
    got = bow_match_many(quotes, paragraphs)
    want = [counter_loop_match(q, paragraphs) for q in quotes]
    assert [(i, d.hex()) for i, d in got] == [(i, d.hex()) for i, d in want]


# The number grammar, written out: optional spaces around a signed decimal
# (integer: digits only) or inf/infinity/nan, in any case.
FLOAT = re.compile(
    r" *[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan) *", re.I)
INT = re.compile(r" *[+-]?[0-9]+ *")


def outcome_of(parse, *args):
    """What ``parse(*args)`` returns, or its exception type and message."""
    try:
        return parse(*args)
    except Exception as exc:
        return type(exc), str(exc)


def matrix_reference(text):
    """Labels, shape and value bits of a matrix text, read cell by cell
    from the grammar: csv rows, then ``FLOAT`` and ``float()`` per cell (a
    line break inside a quoted cell reads as a space)."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    labels, body = tuple(rows[0]), rows[1:]
    for r, row in enumerate(body, start=1):
        if len(row) != len(labels):
            raise RaggedRowError(f"m.csv: row {r} has {len(row)} fields, expected {len(labels)}")
        for cell, label in zip(row, labels):
            if not FLOAT.fullmatch(cell.replace("\r", " ").replace("\n", " ")):
                raise MalformedNumberError(
                    f"m.csv: malformed number {cell!r} at row {r}, column {label!r}")
    data = np.array([[float(cell) for cell in row] for row in body]).reshape(-1, len(labels))
    return labels, data.shape, data.tobytes()


def matrix_parse(text):
    labels, data = parse_file(text)
    return labels, data.shape, data.tobytes()


@st.composite
def csv_texts(draw):
    """Matrix texts: numbers in several spellings, random strings over a
    number-like alphabet, spellings only ``float()`` or only numpy without
    the ASCII limit reads, quoted cells (some with a comma or a line break),
    blank lines, CRLF line ends, and now and then a row of the wrong length."""
    floats = st.floats(allow_nan=False, allow_infinity=False)
    cell = st.one_of(
        st.text("0123456789.eE+- _", max_size=8),
        floats.map(repr),
        floats.map(lambda v: "%.17g" % v),
        floats.map(lambda v: "%+.3e" % v),
        st.sampled_from(["-0", "+.5", "1.", "007", "1e-400", "5e-324", "1E+308", "2e308",
                         "nan", "-NaN", "Infinity", "-inf", "+INF", "infinit", "0x10", " 1 ",
                         "1_0", "１", "٣", "0.5\x1c", "\t0.5", "1\x7f", ""]),
    )
    quoted = cell.map(lambda c: '"' + c + '"') | st.sampled_from(
        ['"1,5"', '"0.1\n"', '"\r\n2"', '"1\n2"', '"0.5"" "'])
    cols = draw(st.integers(1, 3))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(f"l{j}" for j in range(cols))]
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
        n = cols + (draw(st.integers(0, 9)) == 0)
        lines.append(",".join(draw(cell | quoted) for _ in range(n)))
    return end.join(lines) + draw(st.sampled_from(["", end, end + end]))


@settings(max_examples=500)
@given(csv_texts())
def test_c_parser_path_equals_per_cell_parser(text):
    assert outcome_of(matrix_parse, text) == outcome_of(matrix_reference, text)


def ocr_reference(text):
    """Token fields of a word-box table, read row by row from the grammar:
    ``INT``/``FLOAT`` and ``int()``/``float()`` per field, int64 at most,
    then, for rows with text, the word-box rules: a positive box, then
    non-negative indices, then every integer field inside +-2**31."""
    lines = re.split(r"\r\n|\r|\n", text)
    header = lines[0].split("\t")
    column = {name: header.index(name) for name in TSV_COLUMNS}
    tokens = []
    for n, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if header[-1] == "text" and len(fields) == len(header) - 1:
            fields.append("")  # an empty last text whose tab was swallowed
        if not line.strip():
            continue
        if len(fields) != len(header):
            raise OcrFormatError(f"line {n}: {len(fields)} fields, expected {len(header)}")
        field = {name: fields[column[name]] for name in TSV_COLUMNS}
        for name in ("conf", *TSV_COLUMNS[1:10]):
            number = FLOAT if name == "conf" else INT
            if not number.fullmatch(field[name]) or (
                    number is INT and not -(2**63) <= int(field[name]) < 2**63):
                raise OcrFormatError(f"line {n}: non-numeric {name} field {field[name]!r}")
        text = field["text"]
        if not text.strip():
            continue
        ints = [int(field[name]) for name in TSV_COLUMNS[1:10]]
        width, height = ints[7:]
        if width <= 0 or height <= 0:
            raise OcrFormatError(f"line {n}: token {text!r} has non-positive box {width}x{height}")
        if min(ints[:5]) < 0:
            raise OcrFormatError(f"line {n}: token {text!r} has a negative index")
        if not all(-(2**31) < v < 2**31 for v in ints):
            raise OcrFormatError(f"line {n}: token {text!r} has a field outside +-2**31")
        tokens.append((*ints, text))
    return tokens


def ocr_parse(text):
    tokens = parse_ocr_tsv(text)
    return [(*fields, text) for fields, text in zip(tokens.fields.tolist(), tokens.texts)]


INT_CELLS = st.one_of(
    st.integers(-2, 40).map(str),
    st.text("0123456789+- _", max_size=4),
    st.sampled_from(["+5", " 5", "5 ", "1_0", "5.0", "5e1", "５", "50\x1f", "x", "",
                     "\t5", "5\x7f", str(2**31 - 1), str(2**31), str(-(2**31)), str(2**63 - 1),
                     str(2**63), str(-(2**63)), str(-(2**64))]),
)
CONF_CELLS = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.text("0123456789.eE+- ", max_size=5),
    st.sampled_from(["-1", "95", ".5", "9.5e1", "nan", "-NaN", "inf", "Infinity", "1..2", "",
                     "1_0", "５", "0.5\x1c"]),
)


@st.composite
def ocr_tables(draw):
    """Word-box tables: the standard or a permuted header (sometimes with
    an extra column), clean rows of small valid numbers, or rows mixing
    valid numbers with spellings outside the grammar, blank texts, texts
    with '#', quotes, a tab or a character only ``str.splitlines`` ends a
    line at, rows missing their last field, blank lines, and CRLF or CR
    line ends."""
    columns = TSV_COLUMNS + (("extra",) if draw(st.booleans()) else ())
    header = draw(st.one_of(st.just(columns), st.permutations(columns)))
    messy = draw(st.booleans())
    ints = INT_CELLS if messy else st.integers(0, 40).map(str)
    confs = CONF_CELLS if messy else st.integers(-1, 99).map(str)
    text_chars = 'ab #"\'é' + ("\t\f\v\x1c\x85\u2028" if messy else "")
    texts = st.text(st.sampled_from(text_chars), max_size=4)
    lines = ["\t".join(header)]
    for _ in range(draw(st.integers(0 if messy else 1, 5))):
        if messy and draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        row = {"level": "5", "conf": draw(confs), "text": draw(texts), "extra": draw(texts)}
        for name in TSV_COLUMNS[1:10]:
            row[name] = draw(ints)
        line = "\t".join(row[name] for name in header)
        if messy and draw(st.integers(0, 5)) == 0:
            line = line.rpartition("\t")[0]  # a short row, or a swallowed trailing tab
        lines.append(line)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"])) if messy else "\n"
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=500)
@given(ocr_tables())
def test_columnar_ocr_parser_equals_per_row_parser(text):
    assert outcome_of(ocr_parse, text) == outcome_of(ocr_reference, text)


def paragraphs_per_token(tokens):
    """The per-token grouping that ``paragraphs_from_tokens`` replaced."""
    by_par = {}
    for token in tokens:
        by_par.setdefault((token.page, token.block, token.paragraph), []).append(token)
    records = []
    for key in sorted(by_par):
        page, block, par = key
        words = sorted(by_par[key], key=lambda t: (t.line, t.word))
        lines = []
        for _, group in groupby(words, key=attrgetter("line")):
            in_line = list(group)
            lines.append(LineBox(
                page=page,
                left=min(w.left for w in in_line),
                top=min(w.top for w in in_line),
                right=max(w.left + w.width for w in in_line),
                bottom=max(w.top + w.height for w in in_line),
                text=" ".join(w.text for w in in_line),
            ))
        heights = np.repeat([w.height for w in words], [len(w.text) for w in words])
        records.append(ParagraphRecord(
            record_id=f"p{page:04d}_b{block:03d}_p{par:03d}",
            first_page=page, last_page=page, lines=tuple(lines),
            text=" ".join(line.text for line in lines),
            char_height=float(np.median(heights)),
            char_width=sum(w.width for w in words) / sum(len(w.text) for w in words),
        ))
    return records


class Word(NamedTuple):
    """One word box, as the per-token grouping reads it."""

    page: int
    block: int
    paragraph: int
    line: int
    word: int
    left: int
    top: int
    width: int
    height: int
    text: str


@st.composite
def token_lists(draw):
    """Word boxes over few page/block/paragraph/line/word values, so equal
    keys in any input order are common; boxes up to the +-2**31 edge."""
    small = st.integers(0, 2)
    coord = st.one_of(st.integers(-50, 50), st.sampled_from([-(2**31) + 1, 2**31 - 1]))
    size = st.one_of(st.integers(1, 30), st.just(2**31 - 1))
    token = st.builds(
        Word, small, small, small, small, small, coord, coord, size, size,
        st.text("abcé#", min_size=1, max_size=6),
    )
    return draw(st.lists(token, min_size=1, max_size=30))


@settings(max_examples=300)
@given(token_lists())
def test_paragraph_assembly_equals_per_token_grouping(tokens):
    want = json.dumps([p.to_json() for p in paragraphs_per_token(tokens)])
    # int32 is the parser's dtype: there, edges and width sums at the
    # 2**31 - 1 boundary are exact only if they are formed in int64
    for dtype in (np.int64, np.int32):
        columns = OcrTokens(np.array([t[:9] for t in tokens], dtype=dtype),
                            [t.text for t in tokens])
        got = [p.to_json() for p in paragraphs_from_tokens(columns)]
        assert json.dumps(got) == want, dtype  # floats by repr: the same bits


@st.composite
def relation_networks(draw):
    """Networks of 2-30 labels.  Every pair has a direct edge, so each
    one is connected.  A third have one weight, so
    every target distance is equal; a third draw from four weights, so
    equal distances are common."""
    n = draw(st.integers(2, 30))
    kind = draw(st.sampled_from(["one", "few", "any"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "one":
        weights = np.full((n, n), draw(st.sampled_from([0.0, 0.05, 0.5, 1.0])))
    elif kind == "few":
        weights = rng.choice([0.0, 0.1, 0.5, 1.0], size=(n, n))
    else:
        weights = rng.random((n, n))
    np.fill_diagonal(weights, 1.0)
    return RelationNetwork(tuple(f"l{j}" for j in range(n)), weights, np.ones(n))


@settings(max_examples=60)
@given(relation_networks())
def test_layout_ends_at_most_at_its_start(net):
    start = kamada_kawai_layout(net, iterations=0)  # the classical-MDS start
    assert kamada_kawai_layout(net).stress <= start.stress


@settings(max_examples=100)
@given(relation_networks(), st.integers(0, 60))
def test_one_more_iteration_never_raises_the_stress(net, k):
    before = kamada_kawai_layout(net, iterations=k).stress
    assert kamada_kawai_layout(net, iterations=k + 1).stress <= before * (1.0 + 1e-12)


@st.composite
def fold_searches(draw):
    """(labels, k, seed).  Small k = 2 matrices give few distinct
    deviations, so rows tie on their largest one and on later ones;
    identical columns repeat every deviation; k = 300 gives folds of one
    or two items and 300 * L counts per row."""
    k = draw(st.sampled_from([2, 2, 3, 300]))
    n = draw(st.integers(300, 320) if k == 300 else st.integers(k, 24))
    n_labels = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "zeros", "ones", "identical"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = (rng.random((n, n_labels)) < draw(st.sampled_from([0.1, 0.3, 0.5]))).astype(int)
    if kind == "zeros":
        y[:] = 0
    elif kind == "ones":
        y[:] = 1
    elif kind == "identical":
        y[:] = y[:, :1]
    labels = LabelMatrix(tuple(f"l{j}" for j in range(n_labels)), y)
    return labels, k, draw(st.integers(0, 2**16))


@settings(max_examples=40)
@given(fold_searches())
def test_max_first_fold_search_equals_full_sort_oracle(search):
    labels, k, seed = search
    for candidates in (1, _SLAB - 1, _SLAB, _SLAB + 1, 2 * _SLAB + 1,
                       _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 37):
        score, _, fold_of = search_oracle(labels, k, candidates, seed)
        out = stratified_kfold(labels, k, candidates, seed)
        np.testing.assert_array_equal(out.fold_of, fold_of)
        assert out.score.tobytes() == np.array(score).tobytes()
        # the reference scorer gives the same bits, all-zero and identical columns included
        assert partition_score(labels, out.fold_of, k).tobytes() == out.score.tobytes()


def test_fold_search_ties_across_slabs_and_blocks_keep_the_earliest():
    # rows tied on the smallest peak deviation lie in several slabs of both
    # blocks: row 2 (slab 0) loses to row 37 (slab 1) on a later entry, and
    # row 37's whole score vector recurs in later slabs and in block 1
    labels = LabelMatrix(("a", "b", "c"),
                         (np.random.default_rng(0).random((14, 3)) < 0.35).astype(int))
    candidates = _CHUNK + 2 * _SLAB
    scores = [tuple(partition_score(labels, candidate_partition(0, c, 14, 3), 3))
              for c in range(candidates)]
    best = min(scores)
    peak_tied = [c for c in range(candidates) if scores[c][0] == best[0]]
    winners = [c for c in range(candidates) if scores[c] == best]
    assert peak_tied[0] == 2 and winners[0] == 37
    assert {c // _SLAB for c in winners} > {1, 3} and {c // _CHUNK for c in winners} == {0, 1}
    out = stratified_kfold(labels, 3, candidates, seed=0)
    np.testing.assert_array_equal(out.fold_of, candidate_partition(0, 37, 14, 3))
    assert tuple(out.score) == scores[37]


@st.composite
def dbscan_instances(draw):
    """(points, eps, min_pts, pair block).  Lattice points at eps from one
    another (eps a lattice distance, or None for the k-distance eps, which
    lands on ties), duplicated points, and random ones; small pair blocks
    split the point pairs inside and across cell pairs."""
    m = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["random", "lattice", "duplicated"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 0.5, 0.25, 0.1, 3.0]))
    if kind == "random":
        points = rng.normal(size=(m, 2)) * scale * draw(st.sampled_from([1.0, 10.0]))
    else:
        points = rng.integers(0, 5, size=(m, 2)) * scale
        if kind == "duplicated":
            points = points[rng.integers(0, min(m, 4), size=m)]
    eps = draw(st.one_of(
        st.none(),
        st.sampled_from([1.0, math.sqrt(2.0), 2.0, math.sqrt(5.0), 3.0]).map(lambda e: e * scale),
        st.floats(0.01, 5.0),
    ))
    block = draw(st.sampled_from([segmentation._PAIR_BLOCK, 1, 5, 64]))
    return points.astype(np.float64), eps, draw(st.integers(1, 6)), block


@settings(max_examples=300)
@given(dbscan_instances())
def test_grid_dbscan_equals_dense_oracle(instance):
    points, eps, min_pts, block = instance
    with mock.patch.object(segmentation, "_PAIR_BLOCK", block):
        if eps is None:
            eps = dense_k_distance_eps(points, min_pts)
            got = _k_distance_eps(*distinct(points), min_pts)
            assert np.float64(got).tobytes() == np.float64(eps).tobytes()
        np.testing.assert_array_equal(dbscan(points, eps, min_pts),
                                      dense_dbscan(points, eps, min_pts))


@settings(max_examples=200)
@given(dbscan_instances(), st.booleans())
def test_dbscan_default_eps_is_the_dense_k_distance_heuristic(instance, beyond):
    points, _, min_pts, block = instance
    if beyond:  # more neighbours than points: k stops at the farthest copy
        min_pts += len(points)
    with mock.patch.object(segmentation, "_PAIR_BLOCK", block):
        np.testing.assert_array_equal(
            dbscan(points, None, min_pts),
            dbscan(points, dense_k_distance_eps(points, min_pts), min_pts))


@given(st.text(st.sampled_from("ab \r\n\f\v\x1c\x85\u2028")))
def test_text_lines_are_the_lines_of_a_text_mode_file(text):
    wrapper = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")
    assert list(text_lines(text)) == [line.removesuffix("\n") for line in wrapper]


# one stage per reader, with a valid input for it; {in} is the input's folder
PAGE = "\n".join(["\t".join(TSV_COLUMNS)] + [
    f"5\t1\t1\t{par}\t1\t{word}\t{60 * word}\t{40 * par}\t50\t12\t95\tsz\u00f3{par}{word}"
    for par in (1, 2, 3) for word in (1, 2, 3)]) + "\n"
READER_STAGES = {
    "truncate": (["truncate", "--probs", "{in}/input", "--p-low", "0.2", "--p-high", "0.6"],
                 "a,b\n0.1,0.9\n0.5,0.25\n"),
    "filter": (["filter", "--texts", "{in}/input", "--needle", "a"],
               '{"id": 1, "text": "alma"}\n{"id": 2, "text": "k\u00f6rte"}\n'),
    "segment": (["segment", "--tsv", "{in}/input", "--min-pts", "2"], PAGE),
    "size-curve": (["size-curve", "--scores", "{in}/input", "--sizes", "1", "2", "1",
                    "--reps", "2"], "0.5\n0.25\n0.75\n"),
    "metrics": (["metrics", "--probs", "{in}/probs.csv", "--truth", "{in}/truth.csv",
                 "--years", "{in}/input"], "1990\n1991\n1990\n"),
}


@st.composite
def input_bytes(draw, valid: bytes):
    """Any bytes, or a valid input with a run of its bytes replaced by any bytes."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=64))
    i = draw(st.integers(0, len(valid)))
    j = draw(st.integers(i, min(len(valid), i + 8)))
    return valid[:i] + draw(st.binary(max_size=8)) + valid[j:]


@pytest.mark.parametrize("stage", sorted(READER_STAGES))
@settings(max_examples=100)
@given(data=st.data())
def test_any_input_bytes_exit_0_or_2_with_one_error_line(stage, data):
    argv, valid = READER_STAGES[stage]
    content = data.draw(input_bytes(valid.encode("utf-8")))
    with tempfile.TemporaryDirectory() as folder:
        for name, text in (("probs.csv", "a,b\n0.1,0.9\n0.5,0.25\n0.7,0.3\n"),
                           ("truth.csv", "a,b\n0,1\n1,0\n1,1\n")):
            with open(os.path.join(folder, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        with open(os.path.join(folder, "input"), "wb") as fh:
            fh.write(content)
        before = sorted(os.listdir(folder))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = dispatch([a.format(**{"in": folder}) for a in argv]
                            + ["--out", os.path.join(folder, "out")])
        assert code in (0, 2)
        if code == 0:
            assert err.getvalue() == ""
        else:
            message = err.getvalue()
            assert message.startswith("labelcal: error:") and message.count("\n") == 1
            assert message.endswith("\n")
            assert sorted(os.listdir(folder)) == before

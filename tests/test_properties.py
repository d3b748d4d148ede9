"""Property tests: invariants checked on generated inputs."""

import csv
import io
import json
import re
from collections import Counter
from itertools import groupby
from operator import attrgetter

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
from labelcal.core import (  # noqa: E402
    LabelMatrix,
    MalformedNumberError,
    ProbMatrix,
    RaggedRowError,
    _parse_rows,
)
from labelcal.relnet import RelationNetwork, kamada_kawai_layout  # noqa: E402
from labelcal.segmentation import (  # noqa: E402
    TSV_COLUMNS,
    LineBox,
    OcrFormatError,
    OcrToken,
    ParagraphRecord,
    bow_match_many,
    bow_tokens,
    paragraphs_from_tokens,
    parse_ocr_tsv,
)

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
    quote_counts = Counter(bow_tokens(quote))
    q_norm = np.sqrt(sum(v * v for v in quote_counts.values()))
    best_index, best_distance = 0, np.inf
    for i, text in enumerate(paragraphs):
        counts = Counter(bow_tokens(text))
        norm = np.sqrt(sum(v * v for v in counts.values()))
        if norm == 0.0:
            distance = 1.0
        else:
            dot = sum(quote_counts[t] * c for t, c in counts.items())
            distance = max(0.0, 1.0 - dot / (q_norm * norm))
        if distance < best_distance:
            best_index, best_distance = i, distance
    return best_index, float(best_distance)


# mixed case and non-ASCII words; the last three hold no token
WORDS = ["alma", "Alma", "ALMA", "körte", "KÖRTE", "straße", "ω", "Ω", "x1", "12",
         "a_b", "—", "...", "_"]


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
    quotes = draw(st.lists(quote.map(" ".join).filter(bow_tokens), min_size=1, max_size=4))
    return quotes, paragraphs


@settings(max_examples=300)
@given(match_corpora())
def test_bow_match_many_equals_counter_loop(corpus):
    quotes, paragraphs = corpus
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
    labels, data = _parse_rows(text, "m.csv")
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
    then, for rows with text, the ``OcrToken`` checks."""
    lines = text.splitlines()
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
        if not field["text"].strip():
            continue
        try:
            tokens.append(OcrToken(*(int(field[name]) for name in TSV_COLUMNS[1:10]),
                                   float(field["conf"]), field["text"]))
        except OcrFormatError as exc:
            raise OcrFormatError(f"line {n}: {exc}") from None
    return [(*token[:9], token[9].hex(), token[10]) for token in map(tuple_of, tokens)]


def ocr_parse(text):
    return [(*token[:9], token[9].hex(), token[10]) for token in map(tuple_of, parse_ocr_tsv(text))]


def tuple_of(token):
    return (token.page, token.block, token.paragraph, token.line, token.word, token.left,
            token.top, token.width, token.height, token.confidence, token.text)


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
    with '#', quotes or a tab, rows missing their last field, blank lines
    and CRLF line ends."""
    columns = TSV_COLUMNS + (("extra",) if draw(st.booleans()) else ())
    header = draw(st.one_of(st.just(columns), st.permutations(columns)))
    messy = draw(st.booleans())
    ints = INT_CELLS if messy else st.integers(0, 40).map(str)
    confs = CONF_CELLS if messy else st.integers(-1, 99).map(str)
    text_chars = 'ab #"\'é' + ("\t" if messy else "")
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
    end = draw(st.sampled_from(["\n", "\r\n"])) if messy else "\n"
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
                right=max(w.right for w in in_line),
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


@st.composite
def token_lists(draw):
    """Word boxes over few page/block/paragraph/line/word values, so equal
    keys in any input order are common; boxes up to the +-2**31 edge."""
    small = st.integers(0, 2)
    coord = st.one_of(st.integers(-50, 50), st.sampled_from([-(2**31) + 1, 2**31 - 1]))
    size = st.one_of(st.integers(1, 30), st.just(2**31 - 1))
    token = st.builds(
        OcrToken, small, small, small, small, small, coord, coord, size, size,
        st.floats(-1, 100), st.text("abcé#", min_size=1, max_size=6),
    )
    return draw(st.lists(token, min_size=1, max_size=30))


@settings(max_examples=300)
@given(token_lists())
def test_paragraph_assembly_equals_per_token_grouping(tokens):
    got = [p.to_json() for p in paragraphs_from_tokens(tokens)]
    want = [p.to_json() for p in paragraphs_per_token(tokens)]
    assert json.dumps(got) == json.dumps(want)  # floats by repr: the same bits


@st.composite
def relation_networks(draw):
    """Networks of 2-30 labels.  With no weight floor every pair has a
    direct edge, so each one is connected.  A third have one weight, so
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

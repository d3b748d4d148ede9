"""OCR parsing, clustering, paragraph classification, merging, matching."""

import json
import math
import re
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

import child
from labelcal import segmentation
from labelcal.core import LabelcalError, _bow_tokens, bow_match_many, read_input
from labelcal.segmentation import (
    LineBox,
    OcrFormatError,
    OcrTokens,
    ParagraphRecord,
    _distances,
    _k_distance_eps,
    body_margins,
    classify_paragraphs,
    dbscan,
    merge_cross_page,
    merge_decision,
    paragraphs_from_tokens,
    parse_ocr_tsv,
)

HEADER = "level\tpage_num\tblock_num\tpar_num\tline_num\tword_num\tleft\ttop\twidth\theight\tconf\ttext"


def tsv(*rows):
    return HEADER + "\n" + "\n".join(rows) + "\n"


def word_row(page=1, block=1, par=1, line=1, word=1, left=100, top=100,
             width=50, height=12, conf=95.0, text="szó"):
    return f"5\t{page}\t{block}\t{par}\t{line}\t{word}\t{left}\t{top}\t{width}\t{height}\t{conf}\t{text}"


def dbscan_reference(points, eps, min_pts):
    """Brute-force oracle: union-find over core points, borders to the
    nearest core; written independently of the production implementation."""
    points = np.asarray(points, dtype=float)
    m = len(points)
    dist = [[math.dist(points[i], points[j]) for j in range(m)] for i in range(m)]
    core = [sum(1 for j in range(m) if dist[i][j] <= eps) >= min_pts for i in range(m)]

    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(m):
        for j in range(i + 1, m):
            if core[i] and core[j] and dist[i][j] <= eps:
                parent[find(i)] = find(j)

    labels = [-1] * m
    roots = {}
    next_id = 0
    for i in range(m):  # number clusters by the lowest-index core point
        if core[i]:
            root = find(i)
            if root not in roots:
                roots[root] = next_id
                next_id += 1
            labels[i] = roots[root]
    for i in range(m):
        if core[i]:
            continue
        candidates = [(dist[i][j], j) for j in range(m) if core[j] and dist[i][j] <= eps]
        if candidates:
            labels[i] = labels[min(candidates)[1]]
    return np.array(labels)


# The dense DBSCAN path the grid replaced, kept as the bit-level oracle:
# an m x m distance matrix, breadth-first labelling over it, and the
# k-distance eps from a partition of every row.


def pairwise_distances(points):
    """Euclidean distances between all rows, squared differences added to
    0 in coordinate order: the formula's bits for d < 8."""
    total = np.zeros((points.shape[0],) * 2)
    for column in points.T:
        delta = column[:, None] - column[None, :]
        total += np.square(delta, out=delta)
    return np.sqrt(total, out=total)


def dense_dbscan(points, eps, min_pts):
    """DBSCAN on the full distance matrix; clusters numbered by their lowest
    core index, borders to the nearest core, lowest index on a tie."""
    points = np.asarray(points, dtype=np.float64).reshape(len(points), -1)
    dist = pairwise_distances(points)
    labels = np.full(dist.shape[0], -1, dtype=np.int64)
    if not labels.size:
        return labels
    within = dist <= eps
    core = within.sum(axis=1) >= min_pts
    to_core = within & core
    cluster = 0
    for start in np.flatnonzero(core).tolist():
        if labels[start] != -1:
            continue
        frontier = np.array([start])
        while frontier.size:
            labels[frontier] = cluster
            frontier = np.flatnonzero(to_core[frontier].any(axis=0) & (labels == -1))
        cluster += 1
    border = np.flatnonzero(~core & to_core.any(axis=1))
    nearest = np.where(to_core[border], dist[border], np.inf).argmin(axis=1)
    labels[border] = labels[nearest]
    return labels


def dense_k_distance_eps(points, min_pts):
    """eps at the largest jump of the sorted k-distances, from full rows."""
    dist = pairwise_distances(np.asarray(points, dtype=np.float64).reshape(len(points), -1))
    m = dist.shape[0]
    k = min(min_pts, m) - 1
    kd = np.sort(np.partition(dist, k, axis=1)[:, k]) if k >= 0 else np.zeros(m)
    if kd.size < 2 or kd[-1] == 0.0:
        return 1.0
    gaps = np.diff(kd)
    j = int(np.argmax(gaps))
    if gaps[j] == 0.0:
        return float(kd[-1]) * 1.001
    return float((kd[j] + kd[j + 1]) / 2.0)


def dense_classify(paragraphs, eps=None, min_pts=3):
    """``classify_paragraphs`` on the dense path, with one scan of the
    paragraphs per cluster for its mass and median height."""
    features = np.array([[p.char_height, p.char_width] for p in paragraphs])
    std = features.std(axis=0)
    std[std == 0.0] = 1.0
    z = (features - features.mean(axis=0)) / std
    if eps is None:
        eps = dense_k_distance_eps(z, min_pts)
    ids = dense_dbscan(z, eps, min_pts)
    clusters = [c for c in np.unique(ids) if c != -1]
    mass = {c: sum(len(p.text) for p, i in zip(paragraphs, ids) if i == c) for c in clusters}
    heights = {
        c: float(np.median([p.char_height for p, i in zip(paragraphs, ids) if i == c]))
        for c in clusters
    }
    names = {}
    if clusters:
        by_mass = sorted(clusters, key=lambda c: (-mass[c], c))
        body = by_mass[0]
        names[body] = "body"
        footnote_pool = [c for c in by_mass[1:] if heights[c] < heights[body]]
        heading_pool = [c for c in by_mass[1:] if heights[c] > heights[body]]
        if footnote_pool:
            names[footnote_pool[0]] = "footnote"
        if heading_pool:
            names[heading_pool[0]] = "heading"
        aux = 1
        for c in by_mass[1:]:
            if c not in names:
                names[c] = f"aux{aux}"
                aux += 1
    return ["noise" if i == -1 else names[i] for i in ids]


def distinct(points):
    """The distinct rows and their multiplicities, as ``_k_distance_eps`` takes them."""
    return np.unique(points, axis=0, return_counts=True)


def canonical(labels):
    """Relabel clusters by first occurrence; noise stays -1."""
    mapping, out = {}, []
    for l in labels:
        if l == -1:
            out.append(-1)
        else:
            mapping.setdefault(l, len(mapping))
            out.append(mapping[l])
    return np.array(out)


def make_paragraph(pid, char_height, char_width, n_chars=200, page=1,
                   left=100, right=700, cls="body", n_lines=3, last_right=None):
    text_per_line = "x" * max(1, n_chars // n_lines)
    lines = []
    for i in range(n_lines):
        line_right = right if i < n_lines - 1 or last_right is None else last_right
        lines.append(
            LineBox(page=page, left=left, top=100 + 20 * i,
                    right=line_right, bottom=112 + 20 * i, text=text_per_line)
        )
    return ParagraphRecord(
        record_id=pid, first_page=page, last_page=page, lines=tuple(lines),
        text=" ".join(l.text for l in lines), cls=cls,
        char_height=char_height, char_width=char_width,
    )


class TestParseOcrTsv:
    def test_single_valid_row(self):
        tokens = parse_ocr_tsv(tsv(word_row()))
        assert len(tokens) == 1
        assert tokens.texts == ["szó"]

    def test_empty_file_is_missing_header(self):
        with pytest.raises(OcrFormatError, match="header"):
            parse_ocr_tsv("")

    def test_zero_width_box_names_line(self):
        with pytest.raises(OcrFormatError, match="line 2"):
            parse_ocr_tsv(tsv(word_row(width=0)))

    def test_missing_column_rejected(self):
        with pytest.raises(OcrFormatError, match="missing column"):
            parse_ocr_tsv("level\tpage_num\ttext\n")

    def test_non_numeric_field_names_line(self):
        bad = word_row().replace("\t100\t", "\tabc\t", 1)
        with pytest.raises(OcrFormatError, match="line 2"):
            parse_ocr_tsv(tsv(bad))

    def test_empty_text_rows_skipped(self):
        block_row = "2\t1\t1\t0\t0\t0\t90\t90\t600\t800\t-1\t"
        tokens = parse_ocr_tsv(tsv(block_row, word_row()))
        assert len(tokens) == 1


def token_fields(tokens):
    """Every field of every token."""
    return [(*fields, text) for fields, text in zip(tokens.fields.tolist(), tokens.texts)]


def columns(fields, texts):
    """``OcrTokens`` of the given integer field rows and texts."""
    return OcrTokens(np.array(fields, dtype=np.int64).reshape(-1, 9), list(texts))


def parse_outcome(text):
    """Token fields of a parse, or its exception type and message."""
    try:
        return token_fields(parse_ocr_tsv(text))
    except Exception as exc:
        return type(exc), str(exc)


def word(page=1, block=1, par=1, line=1, word=1, left=100, top=100,
         width=50, height=12, text="szó"):
    """The token fields ``word_row`` with the same arguments parses to."""
    return (page, block, par, line, word, left, top, width, height, text)


def error(message):
    return OcrFormatError, message


PERMUTED = "\t".join(["text", "conf", "height", "width", "top", "left", "word_num",
                      "line_num", "par_num", "block_num", "page_num", "level", "extra"])
# Each table with the outcome the per-row int()/float() parser gave it, or,
# where marked, the outcome of numpy's number grammar.
OCR_EDGE_CASES = {
    "plain": (tsv(word_row(), word_row(word=2, left=160)), [word(), word(word=2, left=160)]),
    "plus sign": (tsv(word_row().replace("\t100\t", "\t+100\t", 1)), [word()]),
    "leading space": (tsv(word_row().replace("\t100\t", "\t 100\t", 1)), [word()]),
    "trailing space": (tsv(word_row().replace("\t100\t", "\t100 \t", 1)), [word()]),
    # changed: int() reads these, numpy's C parser does not
    "underscore digits": (tsv(word_row().replace("\t100\t", "\t1_00\t", 1)),
                          error("line 2: non-numeric left field '1_00'")),
    "float in int field": (tsv(word_row(width="5.0")),
                           error("line 2: non-numeric width field '5.0'")),
    "exponent in int field": (tsv(word_row(width="5e1")),
                              error("line 2: non-numeric width field '5e1'")),
    # changed: as "underscore digits"
    "fullwidth digits": (tsv(word_row(width="\uff15\uff10")),
                         error("line 2: non-numeric width field '５０'")),
    "unit separator": (tsv(word_row(width="50\x1f")),  # loadtxt alone would read 50
                       error("line 2: non-numeric width field '50\\x1f'")),
    # changed: a line break to str.splitlines, not to the line rule of files
    "file separator": (tsv(word_row(width="50\x1c")),
                       error("line 2: non-numeric width field '50\\x1c'")),
    # changed: past int64, which numpy's C parser reads, not a range error
    "above int64": (tsv(word_row(left=2**64)),
                    error(f"line 2: non-numeric left field '{2**64}'")),
    "int32 edge": (tsv(word_row(left=-(2**31) + 1, top=2**31 - 1, width=2**31 - 1)),
                   [word(left=-(2**31) + 1, top=2**31 - 1, width=2**31 - 1)]),
    "above int32": (tsv(word_row(top=2**31)),
                    error("line 2: token 'szó' has a field outside +-2**31")),
    "below int32": (tsv(word_row(left=-(2**31))),
                    error("line 2: token 'szó' has a field outside +-2**31")),
    "negative index": (tsv(word_row(), word_row(line=-1)),
                       error("line 3: token 'szó' has a negative index")),
    "negative left": (tsv(word_row(left=-5)), [word(left=-5)]),
    "zero width": (tsv(word_row(), word_row(width=0)),
                   error("line 3: token 'szó' has non-positive box 0x12")),
    "negative height": (tsv(word_row(height=-3)),
                        error("line 2: token 'szó' has non-positive box 50x-3")),
    "empty int field": (tsv(word_row(width="")), error("line 2: non-numeric width field ''")),
    "swallowed trailing tab": (tsv(word_row(), word_row(text="")[:-1]), [word()]),
    "too many fields": (tsv(word_row() + "\textra"), error("line 2: 13 fields, expected 12")),
    # 13 + 11 fields: the right count of tabs overall, in the wrong rows
    "tab in text, then a swallowed tab": (tsv(word_row(text="a\tb"), word_row(text="")[:-1]),
                                          error("line 2: 13 fields, expected 12")),
    "too few fields": (tsv(word_row(), "5\t1\t1"), error("line 3: 3 fields, expected 12")),
    "blank lines": (HEADER + "\n\n" + word_row() + "\n   \n\t\t\n" + word_row(word=2) + "\n\n",
                    [word(), word(word=2)]),
    "blank line before a bad row": (HEADER + "\n\n" + word_row(width=0) + "\n",
                                    error("line 3: token 'szó' has non-positive box 0x12")),
    "header only": (HEADER + "\n", []),
    "no trailing newline": (HEADER + "\n" + word_row(), [word()]),
    "crlf": (HEADER + "\r\n" + word_row() + "\r\n" + word_row(word=2) + "\r\n",
             [word(), word(word=2)]),
    "cr only": (HEADER + "\r" + word_row() + "\r" + word_row(word=2) + "\r",
                [word(), word(word=2)]),
    # changed: as "file separator"
    "line separator in text": (tsv(word_row(text="a\u2028b")), [word(text="a\u2028b")]),
    "permuted header": (PERMUTED + "\n" + "\n".join(
        "\t".join(reversed(word_row(word=w, text=t).split("\t"))) + "\tx"
        for w, t in ((1, "első"), (2, "szó"))) + "\n",
        [word(text="első"), word(word=2)]),
    "hash and quotes in text": (tsv(word_row(text="#1"), word_row(word=2, text='"idézet"'),
                                    word_row(word=3, text="'a'#")),
                                [word(text="#1"), word(word=2, text='"idézet"'),
                                 word(word=3, text="'a'#")]),
    "blank texts skipped": (tsv(word_row(text=""), word_row(word=2, text="  "),
                                word_row(word=3, width=0, text=""), word_row(word=4)),
                            [word(word=4)]),
    # changed: every non-blank row's numbers are read, the rows with text kept after
    "bad numbers in a skipped row": (tsv(word_row(width="x", text=""), word_row()),
                                     error("line 2: non-numeric width field 'x'")),
    "conf forms": (tsv(word_row(conf="-1"), word_row(word=2, conf="9.5e1"),
                       word_row(word=3, conf=".5"), word_row(word=4, conf="+7.")),
                   [word(), word(word=2), word(word=3), word(word=4)]),
    "conf nan and inf": (tsv(word_row(conf="nan"), word_row(word=2, conf="-inf")),
                         [word(), word(word=2)]),
    "conf malformed": (tsv(word_row(conf="9.5.1")), error("line 2: non-numeric conf field '9.5.1'")),
    "nul in text": (tsv(word_row(text="a\x00b")), [word(text="a\x00b")]),
    "lone surrogate in text": (tsv(word_row(text="a\ud800b")), [word(text="a\ud800b")]),
    "non-ascii in level": (tsv(word_row().replace("5", "\u0665", 1)), [word()]),
    # the rule checked first is the one named
    "two rules broken": (tsv(word_row(width=0, line=-1)),
                         error("line 2: token 'szó' has non-positive box 0x12")),
    "int64 minimum": (tsv(word_row(left=-(2**63))),
                      error("line 2: token 'szó' has a field outside +-2**31")),
    "bad box, then too few fields": (tsv(word_row(width=0), "5\t1\t1"),
                                     error("line 2: token 'szó' has non-positive box 0x12")),
    "zero width, blank text": (tsv(word_row(width=0, text=" "), word_row(word=2)),
                               [word(word=2)]),
}
OCR_EDGE_TEXTS = {name: text for name, (text, _) in OCR_EDGE_CASES.items()}
# tables with words: read by one np.loadtxt call
FAST = tuple(name for name, (_, outcome) in OCR_EDGE_CASES.items()
             if isinstance(outcome, list) and outcome)


class TestParseEquivalence:
    @pytest.mark.parametrize("text, outcome", OCR_EDGE_CASES.values(), ids=OCR_EDGE_CASES.keys())
    def test_same_outcome_as_per_row_parser(self, text, outcome):
        assert parse_outcome(text) == outcome

    @pytest.mark.parametrize("name", FAST)
    def test_clean_tables_skip_per_row_parser(self, name):
        """A table that parses is read by one np.loadtxt call, never row by row."""
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            parse_ocr_tsv(OCR_EDGE_TEXTS[name])
        assert loadtxt.call_count == 1

    def test_header_only_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for text in (HEADER + "\n", HEADER + "\n\n \n", tsv(word_row(text=""))):
                assert len(parse_ocr_tsv(text)) == 0

    def test_values_and_messages(self):
        outcome = parse_outcome
        assert [t[5:9] for t in outcome(OCR_EDGE_TEXTS["int32 edge"])] == [
            (-(2**31) + 1, 2**31 - 1, 2**31 - 1, 12)]
        assert [t[5] for t in outcome(OCR_EDGE_TEXTS["plus sign"])] == [100]
        assert [t[9] for t in outcome(OCR_EDGE_TEXTS["blank texts skipped"])] == ["szó"]
        assert [t[9] for t in outcome(OCR_EDGE_TEXTS["permuted header"])] == ["első", "szó"]
        assert outcome(OCR_EDGE_TEXTS["above int32"]) == (
            OcrFormatError, "line 2: token 'szó' has a field outside +-2**31")
        assert outcome(OCR_EDGE_TEXTS["above int64"])[0] is OcrFormatError
        assert outcome(OCR_EDGE_TEXTS["zero width"]) == (
            OcrFormatError, "line 3: token 'szó' has non-positive box 0x12")
        assert outcome(OCR_EDGE_TEXTS["negative index"]) == (
            OcrFormatError, "line 3: token 'szó' has a negative index")
        assert outcome(OCR_EDGE_TEXTS["fullwidth digits"]) == (
            OcrFormatError, "line 2: non-numeric width field '５０'")
        assert outcome(OCR_EDGE_TEXTS["unit separator"]) == (
            OcrFormatError, "line 2: non-numeric width field '50\\x1f'")
        assert outcome(OCR_EDGE_TEXTS["file separator"]) == (
            OcrFormatError, "line 2: non-numeric width field '50\\x1c'")
        assert outcome(OCR_EDGE_TEXTS["too few fields"]) == (
            OcrFormatError, "line 3: 3 fields, expected 12")
        assert outcome(OCR_EDGE_TEXTS["tab in text, then a swallowed tab"]) == (
            OcrFormatError, "line 2: 13 fields, expected 12")

    def test_token_sequence(self):
        tokens = parse_ocr_tsv(OCR_EDGE_TEXTS["plain"])
        assert isinstance(tokens, OcrTokens) and len(tokens) == 2
        both = OcrTokens.concat([tokens, parse_ocr_tsv(tsv(word_row(page=2)))])
        assert len(both) == 3
        assert token_fields(both) == [word(), word(word=2, left=160), word(page=2)]

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_only_lf_crlf_and_cr_end_a_line_of_a_file(self, tmp_path, end):
        # each of these ends a line for str.splitlines, and none for a file
        words = ["a\fb", "a\vb", "a\x1cb", "a\x85b", "a\u2028b"]
        rows = [word_row(word=w, left=60 * w, text=t) for w, t in enumerate(words, start=1)]
        page = tmp_path / "page.tsv"
        page.write_bytes(end.join([HEADER, *rows, ""]).encode("utf-8"))
        assert read_input(page, parse_ocr_tsv).texts == words
        bad = word_row(word=6, width="5x")
        page.write_bytes(end.join([HEADER, *rows, "", bad, ""]).encode("utf-8"))
        with pytest.raises(OcrFormatError) as info:
            read_input(page, parse_ocr_tsv)
        assert str(info.value) == f"{page}: line 8: non-numeric width field '5x'"


class TestParagraphAssembly:
    def test_text_is_lines_joined_by_spaces(self):
        rows = [
            word_row(line=1, word=1, left=100, text="első"),
            word_row(line=1, word=2, left=160, text="sor"),
            word_row(line=2, word=1, left=100, top=120, text="második"),
        ]
        paragraphs = paragraphs_from_tokens(parse_ocr_tsv(tsv(*rows)))
        assert len(paragraphs) == 1
        assert paragraphs[0].text == "első sor második"
        assert len(paragraphs[0].lines) == 2

    def test_separate_paragraphs_by_block_and_par(self):
        rows = [word_row(par=1), word_row(par=2), word_row(block=2)]
        paragraphs = paragraphs_from_tokens(parse_ocr_tsv(tsv(*rows)))
        assert len(paragraphs) == 3

    def test_char_width_is_per_character(self):
        rows = [word_row(width=40, text="négy")]  # 4 chars, 40 px
        p = paragraphs_from_tokens(parse_ocr_tsv(tsv(*rows)))[0]
        assert p.char_width == 10.0

    def test_unsorted_words_and_gapped_line_ids(self):
        rows = [
            word_row(line=7, word=2, left=160, top=140, text="c2"),
            word_row(line=2, word=1, left=100, top=100, text="a1"),
            word_row(line=7, word=1, left=100, top=140, width=30, text="c1"),
            word_row(line=4, word=1, left=110, top=120, height=15, text="b1"),
            word_row(line=2, word=2, left=160, top=98, text="a2"),
        ]
        p = paragraphs_from_tokens(parse_ocr_tsv(tsv(*rows)))[0]
        assert [line.text for line in p.lines] == ["a1 a2", "b1", "c1 c2"]
        assert [(l.left, l.top, l.right, l.bottom) for l in p.lines] == [
            (100, 98, 210, 112), (110, 120, 160, 135), (100, 140, 210, 152)]

    def test_duplicate_keys_keep_input_order(self):
        rows = [
            word_row(line=2, word=1, left=300, top=130, text="d"),
            word_row(line=1, word=1, left=100, text="a"),
            word_row(line=2, word=1, left=200, top=120, height=20, text="c"),
            word_row(line=1, word=1, left=50, width=10, text="b"),
            word_row(page=0, line=1, word=1, text="e"),
            word_row(line=1, word=0, left=400, text="z"),
        ]
        paragraphs = paragraphs_from_tokens(parse_ocr_tsv(tsv(*rows)))
        assert [p.record_id for p in paragraphs] == ["p0000_b001_p001", "p0001_b001_p001"]
        p = paragraphs[1]
        assert [line.text for line in p.lines] == ["z a b", "d c"]
        assert [(l.left, l.top, l.right, l.bottom) for l in p.lines] == [
            (50, 100, 450, 112), (200, 120, 350, 142)]
        # heights repeated per character: 12 12 12 12 20 -> median 12
        assert p.char_height == 12.0 and p.char_width == 210 / 5

    def test_char_height_is_character_weighted_median(self):
        rows = [word_row(word=1, height=10, text="ab"), word_row(word=2, height=30, text="cd")]
        p = paragraphs_from_tokens(parse_ocr_tsv(tsv(*rows)))[0]
        assert p.char_height == float(np.median([10, 10, 30, 30])) == 20.0
        rows = [word_row(word=1, height=11, text="abc"), word_row(word=2, height=3, text="d")]
        assert paragraphs_from_tokens(parse_ocr_tsv(tsv(*rows)))[0].char_height == 11.0

    def test_token_objects_are_accepted(self):
        tokens = columns([[3, 1, 2, 1, 1, 10, 10, 30, 12], [3, 1, 1, 1, 1, 10, 10, 30, 12]],
                         ["egy", "kettő"])
        assert [p.text for p in paragraphs_from_tokens(tokens)] == ["kettő", "egy"]
        assert paragraphs_from_tokens(columns([], [])) == []

    def test_paragraph_without_text_rejected(self):
        with pytest.raises(LabelcalError, match="no text"):
            paragraphs_from_tokens(columns([[1, 1, 1, 1, 1, 10, 10, 30, 12]], [""]))

    def test_record_invariant_enforced(self):
        line = LineBox(1, 0, 0, 10, 10, "abc")
        with pytest.raises(LabelcalError, match="lines joined"):
            ParagraphRecord("x", 1, 1, (line,), "different", "body", 1.0, 1.0)

    def test_json_lines_are_copies_in_field_order(self):
        lines = (LineBox(1, 0, 0, 10, 10, "abc"), LineBox(2, 5, 20, 30, 40, "de"))
        record = ParagraphRecord("x", 1, 2, lines, "abc de", "body", 1.0, 2.0)
        rendered = record.to_json()
        assert rendered["lines"] == [
            {"page": 1, "left": 0, "top": 0, "right": 10, "bottom": 10, "text": "abc"},
            {"page": 2, "left": 5, "top": 20, "right": 30, "bottom": 40, "text": "de"}]
        assert [list(line) for line in rendered["lines"]] == [
            ["page", "left", "top", "right", "bottom", "text"]] * 2
        rendered["lines"][0]["text"] = "changed"
        rendered["lines"][1].clear()
        assert record.lines == lines and lines[0].text == "abc" and lines[1].page == 2
        assert record.to_json()["lines"][0]["text"] == "abc"

    def test_fields_at_the_limits_are_int32_and_their_sums_exact(self):
        edge = 2**31 - 1
        tokens = parse_ocr_tsv(tsv(word_row(left=-edge, top=edge, width=edge, height=edge)))
        assert tokens.fields.dtype == np.int32
        assert tokens.fields.tolist() == [[1, 1, 1, 1, 1, -edge, edge, edge, edge]]
        twice = OcrTokens.concat(iter([tokens, OcrTokens.concat([]), tokens]))
        assert twice.fields.dtype == np.int32
        assert token_fields(twice) == token_fields(tokens) * 2
        (p,) = paragraphs_from_tokens(twice)
        assert [(l.left, l.top, l.right, l.bottom) for l in p.lines] == [(-edge, edge, 0, 2 * edge)]
        assert (p.char_height, p.char_width) == (float(edge), 2 * edge / 6)

    def test_segment_of_800_pages_fits_in_160_mib_over_its_imports(self, tmp_path):
        # 576k word boxes (26 MB of TSV) under an address-space cap of what
        # the interpreter holds once numpy and the CLI are loaded, plus 160
        # MiB.  The run needs ~120 MiB of it; word boxes held as int64 rows,
        # copied whole beside the parsed files and again into sorted order,
        # needed ~190 MiB
        rng = np.random.default_rng(0)
        vocab = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyzáéő"), n))
                 for n in rng.integers(1, 12, 3000)]
        for page in range(1, 801):
            rows = []
            for line, ids in enumerate(rng.integers(0, len(vocab), (60, 12)).tolist(), start=1):
                left = 100
                for word, text in enumerate(map(vocab.__getitem__, ids), start=1):
                    rows.append(word_row(page=page, par=1 + (line - 1) // 6, line=line, word=word,
                                         left=left, top=60 + 20 * line, width=9 * len(text),
                                         height=18, text=text))
                    left += 9 * len(text) + 6
            (tmp_path / f"page{page:04d}.tsv").write_text(tsv(*rows), encoding="utf-8")
        out = tmp_path / "paragraphs.jsonl"
        code = """if True:
            import sys
            import labelcal.cli
            sys.argv = ["labelcal", "segment", "--tsv", sys.argv[1], "--out", sys.argv[2]]
            labelcal.cli.main()
        """
        run = child.run("-c", code, str(tmp_path), str(out), budget=160 << 20, timeout=300,
                        env={"OPENBLAS_NUM_THREADS": "1"})
        assert run.returncode == 0, run.stderr
        last = json.loads(out.read_text(encoding="utf-8").splitlines()[-1])
        assert (last["id"], last["last_page"]) == ("p0800_b001_p010", 800)


class TestDbscan:
    def test_two_tight_groups(self):
        points = np.array([[0.0, 0]] * 3 + [[100.0, 0]] * 3)
        labels = dbscan(points, eps=1.0, min_pts=2)
        np.testing.assert_array_equal(labels, [0, 0, 0, 1, 1, 1])

    def test_lone_point_is_noise(self):
        assert dbscan(np.array([[0.0, 0.0]]), eps=1.0, min_pts=2)[0] == -1

    def test_identical_points_form_one_cluster(self):
        labels = dbscan(np.zeros((6, 2)), eps=1e-9, min_pts=3)
        np.testing.assert_array_equal(labels, np.zeros(6))

    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(81)
        for _ in range(60):
            m = int(rng.integers(5, 80))
            points = rng.random((m, 2)) * 4
            eps = float(rng.uniform(0.2, 1.0))
            min_pts = int(rng.integers(2, 6))
            mine = dbscan(points, eps, min_pts)
            ref = dbscan_reference(points, eps, min_pts)
            np.testing.assert_array_equal(canonical(mine), canonical(ref))

    def test_permutation_invariance_up_to_relabeling(self):
        rng = np.random.default_rng(82)
        for _ in range(20):
            points = rng.random((50, 2)) * 3
            perm = rng.permutation(50)
            base = dbscan(points, eps=0.4, min_pts=3)
            shuffled = dbscan(points[perm], eps=0.4, min_pts=3)
            # compare as set partitions: same cluster iff same cluster
            unshuffled = np.empty(50, dtype=int)
            unshuffled[perm] = shuffled
            for i in range(50):
                for j in range(i + 1, 50):
                    same_a = base[i] == base[j] and base[i] != -1
                    same_b = unshuffled[i] == unshuffled[j] and unshuffled[i] != -1
                    assert same_a == same_b

    @pytest.mark.parametrize("eps", [1.0, math.sqrt(2.0), 2.0, 5.0])
    def test_neighbours_at_exactly_eps_match_union_find_oracle(self, eps):
        from test_acceptance import dbscan_union_find

        rng = np.random.default_rng(86)
        grid = np.array([[x, y] for x in range(6) for y in range(6)], dtype=float)
        triangle = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0], [3.0, 0.0], [3.0, 4.0]])
        for _ in range(40):
            pick = rng.choice(len(grid), size=int(rng.integers(3, 30)), replace=True)
            points = np.concatenate([grid[pick], triangle]) * rng.choice([1.0, 0.5, 0.25])
            points = points[rng.permutation(len(points))]
            for min_pts in (1, 2, 3, 4, 5):
                # numbering follows the lowest-index core point on both sides
                np.testing.assert_array_equal(
                    dbscan(points, eps, min_pts), dbscan_union_find(points, eps, min_pts))

    def test_border_tie_goes_to_lowest_index_core(self):
        # the last point is a border point exactly eps from the core points
        # (0, 0) and (2, 0), which lead two clusters; with one pair per
        # block the tie is settled across blocks
        a = [[0.0, 0.0]] + [[-1.0, 0.0]] * 3
        b = [[2.0, 0.0]] + [[3.0, 0.0]] * 3
        for block in (segmentation._PAIR_BLOCK, 1):
            with mock.patch.object(segmentation, "_PAIR_BLOCK", block):
                for points in (a + b, b + a):
                    labels = dbscan(np.array(points + [[1.0, 0.0]]), eps=1.0, min_pts=4)
                    np.testing.assert_array_equal(labels, [0, 0, 0, 0, 1, 1, 1, 1, 0])

    def test_pairwise_distances_keep_formula_bits(self):
        rng = np.random.default_rng(87)
        for d in range(1, 8):
            for points in (rng.normal(size=(40, d)) * 10.0 ** rng.integers(-3, 4),
                           rng.integers(0, 4, size=(40, d)).astype(float) / 4):
                delta = points[:, None, :] - points[None, :, :]
                formula = np.sqrt((delta**2).sum(axis=-1))
                assert pairwise_distances(points).tobytes() == formula.tobytes()
                # the pair lists dbscan measures, and the windows of the k-distance search
                i, j = np.divmod(np.arange(40 * 40), 40)
                assert _distances(points.T.copy(), i, j).tobytes() == formula.ravel().tobytes()
                window = _distances(points.T.copy(), np.arange(40)[:, None], np.arange(40))
                assert window.tobytes() == formula.tobytes()

    def test_k_distance_eps_matches_full_sort(self):
        rng = np.random.default_rng(88)
        for _ in range(30):
            m = int(rng.integers(1, 60))
            features = rng.integers(0, 5, size=(m, 2)).astype(float)
            if rng.random() < 0.5:
                features += rng.normal(size=(m, 2))
            for min_pts in (0, 1, 3, 8, 80):
                k = min(min_pts, m) - 1
                delta = features[:, None, :] - features[None, :, :]
                dist = np.sort(np.sqrt((delta**2).sum(axis=2)), axis=1)
                kd = np.sort(dist[:, k] if k >= 0 else np.zeros(m))
                if kd.size < 2 or kd[-1] == 0.0:
                    want = 1.0
                else:
                    gaps = np.diff(kd)
                    j = int(np.argmax(gaps))
                    want = (float(kd[-1]) * 1.001 if gaps[j] == 0.0
                            else float((kd[j] + kd[j + 1]) / 2.0))
                rows, counts = distinct(features)
                before = rows.tobytes(), counts.tobytes()
                assert _k_distance_eps(rows, counts, min_pts) == want
                assert dense_k_distance_eps(features, min_pts) == want
                assert (rows.tobytes(), counts.tobytes()) == before  # inputs left as they were

    def test_bad_parameters_rejected(self):
        with pytest.raises(LabelcalError):
            dbscan(np.zeros((2, 2)), eps=0.0, min_pts=1)
        with pytest.raises(LabelcalError):
            dbscan(np.zeros((2, 2)), eps=1.0, min_pts=0)
        for eps in (2.0**-501, 2.0**501, math.inf):
            with pytest.raises(LabelcalError, match="eps must be between 2\\*\\*-500 and 2\\*\\*500"):
                dbscan(np.zeros((2, 2)), eps=eps, min_pts=1)
        for eps in (2.0**-500, 2.0**500):
            np.testing.assert_array_equal(dbscan(np.zeros((2, 2)), eps, 2), [0, 0])
        for shape in ((3,), (3, 1), (3, 3), (3, 4), (3, 0), (2, 2, 2)):
            message = rf"^dbscan clusters 2-D points, shape \(m, 2\), got shape {re.escape(str(shape))}$"
            with pytest.raises(LabelcalError, match=message):
                dbscan(np.zeros(shape), eps=1.0, min_pts=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_is_named(self, bad):
        points = np.zeros((5, 2))
        points[3, 1] = bad
        points[4, 0] = bad
        with pytest.raises(LabelcalError, match="point 3: coordinates must be finite"):
            dbscan(points, eps=1.0, min_pts=2)

    def test_empty_input(self):
        assert dbscan(np.zeros((0, 2)), eps=1.0, min_pts=2).shape == (0,)

    def test_coordinates_far_beyond_the_grid_match_dense_path(self):
        # at 1e20 neighbouring floats are 16384 apart, more than 2**62 cells of side 0.5 from 0
        big = [1e20, 1e20, np.nextafter(1e20, np.inf), -1e20, -1e20, -1e20 - 16384.0]
        points = np.array([[x, 0.0] for x in big] + [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0],
                                                     [1.5e308, 1.0], [1.5e308, 1.0]])
        for eps in (1.0, 16384.0, 1e-3):
            for min_pts in (1, 2, 3):
                with np.errstate(over="ignore"):  # the dense path squares 1.5e308
                    want = dense_dbscan(points, eps, min_pts)
                np.testing.assert_array_equal(dbscan(points, eps, min_pts), want)

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_small_pair_blocks_match_dense_path(self, block):
        # pairs split within and across cells, and cluster links found part way through a cell pair
        rng = np.random.default_rng(90)
        with mock.patch.object(segmentation, "_PAIR_BLOCK", block):
            for _ in range(20):
                m = int(rng.integers(2, 60))
                points = np.round(rng.normal(size=(m, 2)) * 4) / 4
                points[: m // 2] += rng.normal(size=(m // 2, 2))
                min_pts = int(rng.integers(1, 6))
                eps = dense_k_distance_eps(points, min_pts)
                rows, counts = distinct(points)
                assert _k_distance_eps(rows, counts, min_pts) == eps
                for e in (eps, 0.25, 0.5):
                    np.testing.assert_array_equal(dbscan(points, e, min_pts),
                                                  dense_dbscan(points, e, min_pts))

    def test_default_eps_is_the_dense_k_distance_heuristic(self):
        lattice = np.array([[x, y] for x in range(4) for y in range(3)], dtype=float)
        # k-distances 1, 2, 4 and 6, three copies each (min_pts 3): the copies add zero
        # jumps, and of the two equal largest jumps the first wins
        tied_jumps = np.c_[[0, 0, 1, 10, 10, 12, 20, 20, 24, 40, 40, 46], np.zeros(12)]
        cases = [np.full((7, 2), 3.5), np.zeros((5, 2)), np.zeros((1, 2)), lattice,
                 np.repeat(lattice, [1, 3] * 6, axis=0), tied_jumps,
                 np.round(np.random.default_rng(92).normal(size=(40, 2)) * 4) / 4]
        for points in cases:
            for min_pts in (1, 2, 3, 5, len(points) + 4):
                eps = dense_k_distance_eps(points, min_pts)
                np.testing.assert_array_equal(dbscan(points, None, min_pts),
                                              dbscan(points, eps, min_pts))
                np.testing.assert_array_equal(dbscan(points, None, min_pts),
                                              dense_dbscan(points, eps, min_pts))
        assert dbscan(np.zeros((0, 2)), None, 3).shape == (0,)
        assert dense_k_distance_eps(tied_jumps, 3) == 3.0
        assert dense_k_distance_eps(np.full((7, 2), 3.5), 3) == 1.0  # all k-distances 0
        assert dense_k_distance_eps(lattice, 2) == 1.001  # all k-distances 1: no jump


class TestClassifyParagraphs:
    def test_clusters_through_one_dbscan_call(self, monkeypatch):
        calls = []

        def counted(points, eps, min_pts):
            calls.append((eps, min_pts))
            return dbscan(points, eps, min_pts)

        monkeypatch.setattr(segmentation, "dbscan", counted)
        paragraphs = ([make_paragraph(f"b{i}", 10.0, 5.0) for i in range(6)]
                      + [make_paragraph(f"h{i}", 16.0, 8.0) for i in range(3)])
        for eps in (None, 0.5):
            calls.clear()
            classes = classify_paragraphs(paragraphs, eps=eps, min_pts=2)
            assert classes == ["body"] * 6 + ["heading"] * 3
            assert calls == [(eps, 2)]

    def test_uniform_stats_all_body(self):
        paragraphs = [make_paragraph(f"p{i}", 10.0, 5.0) for i in range(6)]
        assert classify_paragraphs(paragraphs, min_pts=2) == ["body"] * 6

    def test_three_class_synthetic_corpus(self):
        rng = np.random.default_rng(83)
        paragraphs, expected = [], []
        for i in range(40):  # body: 10pt, long
            paragraphs.append(
                make_paragraph(f"b{i}", 10.0 + rng.normal(0, 0.2),
                               5.0 + rng.normal(0, 0.1), n_chars=400)
            )
            expected.append("body")
        for i in range(12):  # footnotes: 8pt, short
            paragraphs.append(
                make_paragraph(f"f{i}", 8.0 + rng.normal(0, 0.2),
                               4.0 + rng.normal(0, 0.1), n_chars=80)
            )
            expected.append("footnote")
        for i in range(8):  # headings: 14pt, very short
            paragraphs.append(
                make_paragraph(f"h{i}", 14.0 + rng.normal(0, 0.2),
                               7.0 + rng.normal(0, 0.1), n_chars=30)
            )
            expected.append("heading")
        got = classify_paragraphs(paragraphs, min_pts=3)
        accuracy = np.mean([g == e for g, e in zip(got, expected)])
        assert accuracy >= 0.95

    def test_extreme_outlier_is_noise(self):
        rng = np.random.default_rng(84)
        paragraphs = [
            make_paragraph(f"b{i}", 10.0 + rng.normal(0, 0.2), 5.0, n_chars=300)
            for i in range(12)
        ]
        paragraphs.append(make_paragraph("giant", 30.0, 14.0, n_chars=20))
        got = classify_paragraphs(paragraphs, min_pts=3)
        assert got[-1] == "noise"
        assert got[:12] == ["body"] * 12

    def test_extra_clusters_become_numbered_aux(self):
        paragraphs = (
            [make_paragraph(f"b{i}", 10.0, 5.0, n_chars=400) for i in range(5)]
            + [make_paragraph(f"f{i}", 8.0, 4.0, n_chars=100) for i in range(5)]
            + [make_paragraph(f"t{i}", 6.0, 3.0, n_chars=50) for i in range(5)]
        )
        got = classify_paragraphs(paragraphs, eps=0.3, min_pts=3)
        assert got[:5] == ["body"] * 5
        assert got[5:10] == ["footnote"] * 5
        assert got[10:] == ["aux1"] * 5

    def test_equal_masses_go_to_the_lower_cluster_as_the_loops_did(self):
        def group(name, height, n_chars):
            return [make_paragraph(f"{name}{i}", height, height / 2, n_chars=n_chars)
                    for i in range(4)]

        ten, eight, six = group("a", 10.0, 300), group("b", 8.0, 300), group("c", 6.0, 300)
        cases = [
            (ten + eight, ["body"] * 4 + ["footnote"] * 4),
            (eight + ten, ["body"] * 4 + ["heading"] * 4),
            (eight + six + ten, ["body"] * 4 + ["footnote"] * 4 + ["heading"] * 4),
            (six + ten + eight, ["body"] * 4 + ["heading"] * 4 + ["aux1"] * 4),
            (ten + group("d", 8.0, 150) + group("e", 8.0, 150)[:2]
             + [make_paragraph("x", 30.0, 40.0)], None),
        ]
        for paragraphs, want in cases:
            got = classify_paragraphs(paragraphs, eps=0.3, min_pts=2)
            assert got == dense_classify(paragraphs, eps=0.3, min_pts=2)
            if want is not None:
                assert got == want
            for eps in (None, 0.05, 2.0):
                assert (classify_paragraphs(paragraphs, eps=eps, min_pts=3)
                        == dense_classify(paragraphs, eps=eps, min_pts=3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_feature_names_the_paragraph(self, bad):
        paragraphs = [make_paragraph(f"p{i}", 10.0, 5.0) for i in range(4)]
        paragraphs[2] = make_paragraph("p2", 10.0, bad)
        paragraphs[3] = make_paragraph("p3", bad, 5.0)
        with pytest.raises(LabelcalError, match="paragraph p2: char_height and char_width"):
            classify_paragraphs(paragraphs)

    def test_overflowing_features_name_the_paragraph_without_warnings(self):
        # finite, but their sum overflows the mean: every standardised row is -inf or nan
        paragraphs = [make_paragraph(f"p{i}", h, 5.0) for i, h in enumerate([1e308, 1e308, 1.0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LabelcalError) as info:
                classify_paragraphs(paragraphs)
        assert str(info.value) == (
            "paragraph p0: char_height and char_width overflow when standardised")

    def test_memory_well_under_one_square_array(self):
        # 5,000 continuous feature points: one m x m float64 array is 200 MB
        rng = np.random.default_rng(89)
        paragraphs = [make_paragraph(f"p{i}", h, w) for i, (h, w) in enumerate(
            np.c_[rng.normal(10, 1, 5000), rng.normal(5, 0.5, 5000)].tolist())]
        tracemalloc.start()
        try:
            classify_paragraphs(paragraphs, min_pts=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_twenty_thousand_paragraphs_in_one_gib(self):
        # continuous features, three clusters and a far jittered lattice of
        # noise: the grid carries it, not the merging of identical points
        # (one 20k x 20k float64 array alone is 3.2 GB)
        code = """if True:
            from collections import Counter
            import numpy as np
            from labelcal.segmentation import LineBox, ParagraphRecord, classify_paragraphs
            rng = np.random.default_rng(0)
            lattice = np.array([[x, y] for x in range(10) for y in range(10)], float)
            noise = np.c_[30 + 2 * lattice[:, 0], 15 + 2 * lattice[:, 1]]
            noise += rng.uniform(-0.2, 0.2, noise.shape)
            clusters = [np.c_[rng.normal(h, 0.1, n), rng.normal(h / 2, 0.05, n)]
                        for h, n in ((10, 11940), (8, 4975), (14, 2985))]
            features = np.concatenate(clusters + [noise])[rng.permutation(20_000)]
            line = LineBox(1, 0, 0, 10, 10, "x")
            paragraphs = [ParagraphRecord(f"p{i}", 1, 1, (line,), "x", "body", h, w)
                          for i, (h, w) in enumerate(features.tolist())]
            print(sorted(Counter(classify_paragraphs(paragraphs)).items()))
        """
        run = child.run("-c", code, cap=1 << 30, timeout=300, env={"OPENBLAS_NUM_THREADS": "1"})
        assert run.returncode == 0, run.stderr
        assert run.stdout.split("\n")[0] == (
            "[('body', 11940), ('footnote', 4975), ('heading', 2985), ('noise', 100)]")


class TestBodyMargins:
    def test_modal_left_and_95th_right(self):
        paragraphs = [make_paragraph(f"p{i}", 10.0, 5.0) for i in range(5)]
        paragraphs.append(make_paragraph("indented", 10.0, 5.0, left=140))
        left, right = body_margins(paragraphs)
        assert abs(left - 100.0) < 2.0
        assert right == 700.0

    def test_page_without_body_returns_none(self):
        assert body_margins([make_paragraph("h", 14.0, 7.0, cls="heading")]) is None

    def test_tied_bins_give_the_smaller_one(self):
        # three lines in bin 70 (seen first) and three in bin 50
        paragraphs = [make_paragraph("a", 10.0, 5.0, left=141),
                      make_paragraph("b", 10.0, 5.0, left=100, n_lines=2),
                      make_paragraph("c", 10.0, 5.0, left=101, n_lines=1)]
        left, _ = body_margins(paragraphs)
        assert left == np.mean([100.0, 100.0, 101.0])

    def test_modal_bin_equals_the_per_bin_rescan(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            lefts = rng.integers(90, 110, size=rng.integers(1, 12))
            paragraphs = [make_paragraph(f"p{i}", 10.0, 5.0, left=int(x), n_lines=1)
                          for i, x in enumerate(lefts)]
            bins = np.floor(lefts / 2.0).astype(np.int64)
            modal = min(np.unique(bins), key=lambda b: (-(bins == b).sum(), b))
            assert body_margins(paragraphs)[0] == float(lefts[bins == modal].mean())


class TestMergeCrossPage:
    def page(self, number, first_left=100, last_right=700, n_fill=4):
        """A page of body paragraphs; the first/last paragraph geometry is
        controlled so merge cues can be steered from the test."""
        fill = [
            make_paragraph(f"p{number}_fill{i}", 10.0, 5.0, page=number)
            for i in range(n_fill)
        ]
        first = make_paragraph(f"p{number}_first", 10.0, 5.0, page=number,
                               left=first_left)
        last = make_paragraph(f"p{number}_last", 10.0, 5.0, page=number,
                              last_right=last_right)
        return [first] + fill + [last]

    def test_flush_boundary_merges(self):
        # last line ends 2 px short of the right margin; next page flush left
        pages = [self.page(1, last_right=698), self.page(2, first_left=100)]
        merged = merge_cross_page(pages)
        assert len(merged) == len(pages[0]) + len(pages[1]) - 1
        joined = merged[len(pages[0]) - 1]
        assert joined.first_page == 1 and joined.last_page == 2

    def test_indented_next_page_does_not_merge(self):
        pages = [self.page(1, last_right=698), self.page(2, first_left=140)]
        merged = merge_cross_page(pages)
        assert len(merged) == len(pages[0]) + len(pages[1])

    def test_short_last_line_does_not_merge(self):
        pages = [self.page(1, last_right=400), self.page(2, first_left=100)]
        merged = merge_cross_page(pages)
        assert len(merged) == len(pages[0]) + len(pages[1])

    def test_disjunctive_mode_accepts_either_cue(self):
        pages = [self.page(1, last_right=400), self.page(2, first_left=100)]
        merged = merge_cross_page(pages, mode="disjunctive")
        assert len(merged) == len(pages[0]) + len(pages[1]) - 1

    def test_chain_across_three_pages(self):
        pages = [
            self.page(1, last_right=699),
            self.page(2, first_left=100, last_right=699, n_fill=0),
            self.page(3, first_left=100),
        ]
        # page 2 has only first+last; make them one paragraph so the chain
        # can continue: use a single paragraph page
        middle = make_paragraph("p2_only", 10.0, 5.0, page=2, left=100,
                                last_right=699)
        pages[1] = [middle]
        merged = merge_cross_page(pages)
        spanning = [p for p in merged if p.first_page == 1 and p.last_page == 3]
        assert len(spanning) == 1

    def test_non_body_paragraphs_do_not_merge(self):
        pages = [self.page(1, last_right=698), self.page(2, first_left=100)]
        pages[1][0] = make_paragraph("head", 14.0, 7.0, page=2, cls="heading")
        merged = merge_cross_page(pages)
        assert len(merged) == len(pages[0]) + len(pages[1])

    def test_page_without_body_warns_and_skips(self):
        pages = [
            self.page(1, last_right=698),
            [make_paragraph("h", 14.0, 7.0, page=2, cls="heading")],
        ]
        with pytest.warns(UserWarning, match=r"^page 2: no body paragraphs"):
            merged = merge_cross_page(pages)
        assert len(merged) == len(pages[0]) + 1

    def test_empty_page_warning_names_its_position(self):
        pages = [self.page(7, last_right=698), [], self.page(9, first_left=100)]
        with pytest.warns(UserWarning, match=r"^empty page at position 1: no body paragraphs"):
            merged = merge_cross_page(pages)
        assert len(merged) == len(pages[0]) + len(pages[2])


    def test_unknown_mode_is_an_error_whatever_the_pages(self):
        heading = make_paragraph("h", 14.0, 7.0, page=1, cls="heading")
        body = make_paragraph("b", 10.0, 5.0, page=2)
        for pages in ([[heading], [body]], [[body], [body]], [[], []], []):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # raised before any page is looked at
                with pytest.raises(LabelcalError, match=r"^unknown merge mode 'bogus'$"):
                    merge_cross_page(pages, mode="bogus")
        for last, first in ((heading, body), (body, heading), (body, body)):
            with pytest.raises(LabelcalError, match=r"^unknown merge mode 'bogus'$"):
                merge_decision(last, first, (100.0, 700.0), (100.0, 700.0), mode="bogus")


class TestBowMatch:
    def test_identical_paragraph_is_exact(self):
        corpus = ["alma körte szilva", "teljesen más szöveg"]
        index, distance = bow_match_many(["alma körte szilva"], corpus)[0]
        assert index == 0
        assert distance == 0.0

    def test_quote_inserted_into_corpus_is_found(self):
        rng = np.random.default_rng(85)
        words = ["alpha", "beta", "gamma", "delta", "epsilon"]
        corpus = [
            " ".join(rng.choice(words, size=8)) for _ in range(10)
        ]
        quote = corpus[4]
        index, distance = bow_match_many([quote], corpus)[0]
        assert corpus[index] == quote
        assert distance < 1e-12

    def test_disjoint_tokens_distance_one_tie_at_zero(self):
        index, distance = bow_match_many(["qqq www"], ["alma", "körte"])[0]
        assert index == 0
        assert distance == 1.0

    def test_half_quote_prefers_its_source(self):
        a = "egy kettő három négy öt hat hét nyolc"
        b = "teljesen független felsorolás megy itt tovább"
        quote = "egy kettő három négy"
        index, distance = bow_match_many([quote], [a, b])[0]
        # oracle: cos = 4 / (sqrt(4) * sqrt(8)) -> distance 1 - sqrt(2)/2
        assert index == 0
        np.testing.assert_allclose(distance, 1 - math.sqrt(2) / 2, rtol=1e-12)

    def test_tokenizer_lowercases_alphanumeric_runs(self):
        assert _bow_tokens("Alma-Körte 12x") == ["alma", "körte", "12x"]

    @pytest.mark.parametrize("text", [
        "Alma-Körte 12x", "İstanbul İ", "ΟΔΟΣ ΑΣ.Β ΣΑΣ", "ǅemal ǄEMAL", "STRAẞE Straße",
        "a_B_c", "Ⓐ ⓐ ⅫⅪ", "", "—…!", " (alma), körte.\tszilva\u3000x1\x1f2 ", "é\u0301 ½ ²"])
    def test_tokens_are_each_run_lowercased(self, text):
        # dotted capital I lowercases to two characters and capital sigma
        # by context: those texts take the run-by-run path
        assert _bow_tokens(text) == [t.lower() for t in re.findall(r"[^\W_]+", text)]

    def test_fast_paths_rest_on_character_classes(self):
        # lowercasing a whole text before splitting it is exact because no
        # character but capital sigma changes whether it is in a run; a
        # run never crosses whitespace and is what str.isalnum accepts
        run = re.compile(r"[^\W_]")
        for c in map(chr, range(sys.maxunicode + 1)):
            in_run = bool(run.fullmatch(c))
            assert c.isalnum() == in_run and not (c.isspace() and in_run), hex(ord(c))
            low = c.lower()
            assert low
            if low != c and len(low) == 1 and c != "\u03a3":
                assert bool(run.fullmatch(low)) == in_run, hex(ord(c))

    def test_empty_quote_rejected(self):
        with pytest.raises(LabelcalError, match="token"):
            bow_match_many(["—…!"], ["alma"])

    def test_no_paragraphs_rejected(self):
        with pytest.raises(LabelcalError, match="at least one paragraph"):
            bow_match_many(["alma"], [])

    def test_many_quotes_in_one_pass(self):
        corpus = ["—", "alma körte", "Alma KÖRTE", "szilva", "alma körte"]
        # paragraphs 1, 2 and 4 hold the same bag of words; the lowest index wins
        assert bow_match_many(["körte alma", "szilva szilva", "qqq"], corpus) == [
            (1, 1.0 - 2 / (math.sqrt(2) * math.sqrt(2))), (3, 0.0), (0, 1.0)]

    def test_token_less_paragraphs_are_at_distance_one(self):
        assert bow_match_many(["alma"], ["—", "...", "körte"]) == [(0, 1.0)]

    def test_no_quotes_give_no_matches(self):
        assert bow_match_many([], []) == []

    def test_any_token_less_quote_rejected(self):
        with pytest.raises(LabelcalError, match="^quote at index 1 contains no alphanumeric tokens$"):
            bow_match_many(["alma", "—"], ["alma"])

    # a paragraph sharing no token with the quote is at exactly 1.0
    def test_no_paragraph_shares_a_token(self):
        assert bow_match_many(["qqq"], ["alma", "—", "körte alma"]) == [(0, 1.0)]

    def test_token_less_paragraphs_before_the_first_sharing_one(self):
        assert bow_match_many(["alma"], ["—", "...", "körte alma"]) == [
            (2, 1.0 - 1 / (1.0 * math.sqrt(2)))]

    def test_equal_distance_keeps_the_lower_index(self):
        corpus = ["zzz", "körte", "alma", "alma"]
        assert bow_match_many(["alma körte"], corpus) == [(1, 1.0 - 1 / math.sqrt(2))]
        corpus = ["szilva szilva", "alma szilva", "körte szilva"]
        assert bow_match_many(["alma körte szilva"], corpus) == [
            (1, 1.0 - 2 / (math.sqrt(3) * math.sqrt(2)))]

    def test_identical_bag_clamps_to_exactly_zero(self):
        # sqrt(3) * sqrt(3) < 3, so 1 - dot / (q_norm * norm) is below zero
        assert 1.0 - 3 / (math.sqrt(3) * math.sqrt(3)) < 0.0
        ((index, distance),) = bow_match_many(["a b c"], ["x", "C b A"])
        assert (index, distance, math.copysign(1.0, distance)) == (1, 0.0, 1.0)

    def test_matching_loads_no_numpy(self):
        code = """if True:
            import sys
            from labelcal.core import bow_match_many
            assert bow_match_many(["alma"], ["—", "alma"]) == [(1, 0.0)]
            print("numpy" in sys.modules)
        """
        run = child.run("-c", code)
        assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr

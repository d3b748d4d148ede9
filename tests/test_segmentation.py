"""OCR parsing, clustering, paragraph classification, merging, matching."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest

from labelcal import segmentation
from labelcal.core import LabelcalError
from labelcal.segmentation import (
    LineBox,
    OcrFormatError,
    OcrToken,
    OcrTokens,
    ParagraphRecord,
    _k_distance_eps,
    _pairwise_distances,
    body_margins,
    bow_match,
    bow_match_many,
    bow_tokens,
    classify_paragraphs,
    dbscan,
    merge_cross_page,
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
        assert tokens[0].text == "szó"
        assert tokens[0].right == 150

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
    """Every field of every token, the confidence as its bits."""
    return [
        (t.page, t.block, t.paragraph, t.line, t.word, t.left, t.top, t.width,
         t.height, t.confidence.hex(), t.text)
        for t in tokens
    ]


def parse_outcome(text):
    """Token fields of a parse, or its exception type and message."""
    try:
        return token_fields(parse_ocr_tsv(text))
    except Exception as exc:
        return type(exc), str(exc)


def word(page=1, block=1, par=1, line=1, word=1, left=100, top=100,
         width=50, height=12, conf=95.0, text="szó"):
    """The token fields ``word_row`` with the same arguments parses to."""
    return (page, block, par, line, word, left, top, width, height, float(conf).hex(), text)


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
    "file separator": (tsv(word_row(width="50\x1c")),  # a line break to splitlines
                       error("line 2: 9 fields, expected 12")),
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
    "line separator in text": (tsv(word_row(text="a\u2028b")),
                               error("line 3: 1 fields, expected 12")),
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
                   [word(conf=-1), word(word=2), word(word=3, conf=0.5), word(word=4, conf=7)]),
    "conf nan and inf": (tsv(word_row(conf="nan"), word_row(word=2, conf="-inf")),
                         [word(conf="nan"), word(word=2, conf="-inf")]),
    "conf malformed": (tsv(word_row(conf="9.5.1")), error("line 2: non-numeric conf field '9.5.1'")),
    "nul in text": (tsv(word_row(text="a\x00b")), [word(text="a\x00b")]),
    "lone surrogate in text": (tsv(word_row(text="a\ud800b")), [word(text="a\ud800b")]),
    "non-ascii in level": (tsv(word_row().replace("5", "\u0665", 1)), [word()]),
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
        assert [t[10] for t in outcome(OCR_EDGE_TEXTS["blank texts skipped"])] == ["szó"]
        assert [t[10] for t in outcome(OCR_EDGE_TEXTS["permuted header"])] == ["első", "szó"]
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
            OcrFormatError, "line 2: 9 fields, expected 12")
        assert outcome(OCR_EDGE_TEXTS["too few fields"]) == (
            OcrFormatError, "line 3: 3 fields, expected 12")
        assert outcome(OCR_EDGE_TEXTS["tab in text, then a swallowed tab"]) == (
            OcrFormatError, "line 2: 13 fields, expected 12")

    def test_token_sequence(self):
        tokens = parse_ocr_tsv(OCR_EDGE_TEXTS["plain"])
        assert isinstance(tokens, OcrTokens) and len(tokens) == 2
        assert tokens[1] == OcrToken(1, 1, 1, 1, 2, 160, 100, 50, 12, 95.0, "szó")
        assert tokens[-1] == tokens[1] and list(tokens) == [tokens[0], tokens[1]]
        assert token_fields(OcrTokens.of(list(tokens))) == token_fields(tokens)
        both = OcrTokens.concat([tokens, parse_ocr_tsv(tsv(word_row(page=2)))])
        assert [t.page for t in both] == [1, 1, 2]
        with pytest.raises(IndexError):
            tokens[2]


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
        tokens = [OcrToken(3, 1, 2, 1, 1, 10, 10, 30, 12, 90.0, "egy"),
                  OcrToken(3, 1, 1, 1, 1, 10, 10, 30, 12, 90.0, "kettő")]
        assert [p.text for p in paragraphs_from_tokens(iter(tokens))] == ["kettő", "egy"]
        assert paragraphs_from_tokens([]) == []

    def test_paragraph_without_text_rejected(self):
        with pytest.raises(LabelcalError, match="no text"):
            paragraphs_from_tokens([OcrToken(1, 1, 1, 1, 1, 10, 10, 30, 12, 90.0, "")])

    def test_record_invariant_enforced(self):
        line = LineBox(1, 0, 0, 10, 10, "abc")
        with pytest.raises(LabelcalError, match="lines joined"):
            ParagraphRecord("x", 1, 1, (line,), "different", "body", 1.0, 1.0)


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
        # (0, 0) and (2, 0), which lead two clusters
        a = [[0.0, 0.0]] + [[-1.0, 0.0]] * 3
        b = [[2.0, 0.0]] + [[3.0, 0.0]] * 3
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
                assert _pairwise_distances(points).tobytes() == formula.tobytes()

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
                dist = _pairwise_distances(features)
                before = dist.tobytes()
                assert _k_distance_eps(dist, min_pts) == want
                assert dist.tobytes() == before  # the matrix is shared with dbscan

    def test_bad_parameters_rejected(self):
        with pytest.raises(LabelcalError):
            dbscan(np.zeros((2, 2)), eps=0.0, min_pts=1)
        with pytest.raises(LabelcalError):
            dbscan(np.zeros((2, 2)), eps=1.0, min_pts=0)


class TestClassifyParagraphs:
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


    def test_distances_computed_once(self):
        paragraphs = [make_paragraph(f"p{i}", 10.0 + i % 3, 5.0) for i in range(9)]
        with mock.patch.object(
            segmentation, "_pairwise_distances", wraps=_pairwise_distances
        ) as pairwise:
            classify_paragraphs(paragraphs, min_pts=3)
        assert pairwise.call_count == 1


class TestBodyMargins:
    def test_modal_left_and_95th_right(self):
        paragraphs = [make_paragraph(f"p{i}", 10.0, 5.0) for i in range(5)]
        paragraphs.append(make_paragraph("indented", 10.0, 5.0, left=140))
        left, right = body_margins(paragraphs)
        assert abs(left - 100.0) < 2.0
        assert right == 700.0

    def test_page_without_body_returns_none(self):
        assert body_margins([make_paragraph("h", 14.0, 7.0, cls="heading")]) is None


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
        with pytest.warns(UserWarning, match="no body"):
            merged = merge_cross_page(pages)
        assert len(merged) == len(pages[0]) + 1


class TestBowMatch:
    def test_identical_paragraph_is_exact(self):
        corpus = ["alma körte szilva", "teljesen más szöveg"]
        index, distance = bow_match("alma körte szilva", corpus)
        assert index == 0
        assert distance == 0.0

    def test_quote_inserted_into_corpus_is_found(self):
        rng = np.random.default_rng(85)
        words = ["alpha", "beta", "gamma", "delta", "epsilon"]
        corpus = [
            " ".join(rng.choice(words, size=8)) for _ in range(10)
        ]
        quote = corpus[4]
        index, distance = bow_match(quote, corpus)
        assert corpus[index] == quote
        assert distance < 1e-12

    def test_disjoint_tokens_distance_one_tie_at_zero(self):
        index, distance = bow_match("qqq www", ["alma", "körte"])
        assert index == 0
        assert distance == 1.0

    def test_half_quote_prefers_its_source(self):
        a = "egy kettő három négy öt hat hét nyolc"
        b = "teljesen független felsorolás megy itt tovább"
        quote = "egy kettő három négy"
        index, distance = bow_match(quote, [a, b])
        # oracle: cos = 4 / (sqrt(4) * sqrt(8)) -> distance 1 - sqrt(2)/2
        assert index == 0
        np.testing.assert_allclose(distance, 1 - math.sqrt(2) / 2, rtol=1e-12)

    def test_tokenizer_lowercases_alphanumeric_runs(self):
        assert bow_tokens("Alma-Körte 12x") == ["alma", "körte", "12x"]

    def test_empty_quote_rejected(self):
        with pytest.raises(LabelcalError, match="token"):
            bow_match("—…!", ["alma"])

    def test_no_paragraphs_rejected(self):
        with pytest.raises(LabelcalError, match="at least one paragraph"):
            bow_match("alma", [])

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
        with pytest.raises(LabelcalError, match="no alphanumeric tokens"):
            bow_match_many(["alma", "—"], ["alma"])

"""OCR post-processing: word-box parsing, paragraph assembly, paragraph
type classification, cross-page paragraph merging, and quote matching.

Input is the standard 12-column word-box table (level, page_num,
block_num, par_num, line_num, word_num, left, top, width, height, conf,
text).  It is read into columns (``OcrTokens``) by numpy's C parser; a
table it rejects is walked again row by row only to name the first bad
line.  Paragraphs are assembled from one stable sort of the word keys
and per-line array reductions.  Paragraph classes come from density
clustering (DBSCAN over a dense distance matrix, one breadth-first
frontier per array step) on character-size statistics; page-boundary
merges use the two typographic cues - the last line reaching the right
margin and the next page's first line not being indented.
"""

from __future__ import annotations

import io
import re
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from itertools import compress
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .core import LabelcalError, read_numbers

TSV_COLUMNS = (
    "level", "page_num", "block_num", "par_num", "line_num", "word_num",
    "left", "top", "width", "height", "conf", "text",
)
# The integer fields, in ``OcrToken`` field order (page ... height).
_INT_FIELDS = TSV_COLUMNS[1:10]
# Integer fields must lie strictly inside +-2**31, so that box edges, width
# sums and the float64 statistics made from them are exact.
_FIELD_LIMIT = 2**31
_ROW_DTYPE = np.dtype([("fields", np.int64, (len(_INT_FIELDS),)), ("conf", np.float64)])
_int_fields = attrgetter(
    "page", "block", "paragraph", "line", "word", "left", "top", "width", "height"
)
RIGHT_TOL_CHAR_WIDTHS = 1.5
INDENT_TOL_CHAR_WIDTHS = 1.0
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


class OcrFormatError(LabelcalError):
    """Malformed OCR word-box table."""


@dataclass(frozen=True)
class OcrToken:
    """One OCR word box."""

    page: int
    block: int
    paragraph: int
    line: int
    word: int
    left: int
    top: int
    width: int
    height: int
    confidence: float
    text: str

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise OcrFormatError(
                f"token {self.text!r} has non-positive box {self.width}x{self.height}"
            )
        if min(self.page, self.block, self.paragraph, self.line, self.word) < 0:
            raise OcrFormatError(f"token {self.text!r} has a negative index")
        if not all(-_FIELD_LIMIT < v < _FIELD_LIMIT for v in _int_fields(self)):
            raise OcrFormatError(f"token {self.text!r} has a field outside +-2**31")

    @property
    def right(self) -> int:
        return self.left + self.width


@dataclass(frozen=True, eq=False)
class OcrTokens(Sequence[OcrToken]):
    """Word boxes held as columns; ``tokens[i]`` is the ``OcrToken`` of row i.

    ``fields`` is an (n, 9) int64 array of the integer fields in
    ``OcrToken`` order (page, block, paragraph, line, word, left, top,
    width, height), ``confidence`` an (n,) float64 array and ``texts``
    the n word texts.
    """

    fields: np.ndarray
    confidence: np.ndarray
    texts: list[str]

    @classmethod
    def of(cls, tokens: Iterable[OcrToken]) -> OcrTokens:
        """The tokens as columns (``tokens`` itself when it already is)."""
        if isinstance(tokens, cls):
            return tokens
        tokens = list(tokens)
        return cls(
            np.array([_int_fields(t) for t in tokens], dtype=np.int64).reshape(-1, 9),
            np.array([t.confidence for t in tokens], dtype=np.float64),
            [t.text for t in tokens],
        )

    @classmethod
    def concat(cls, parts: Sequence[OcrTokens]) -> OcrTokens:
        """The rows of ``parts``, one after another."""
        return cls(
            np.concatenate([p.fields for p in parts]),
            np.concatenate([p.confidence for p in parts]),
            [text for p in parts for text in p.texts],
        )

    def __len__(self) -> int:
        return len(self.texts)

    def __getitem__(self, i: int) -> OcrToken:
        return OcrToken(*self.fields[i].tolist(), float(self.confidence[i]), self.texts[i])


@dataclass(frozen=True)
class LineBox:
    """One text line: the bounding box of its word boxes."""

    page: int
    left: int
    top: int
    right: int
    bottom: int
    text: str


@dataclass(frozen=True)
class ParagraphRecord:
    """An assembled paragraph with layout statistics.

    ``char_height`` is the character-count-weighted median word-box
    height, ``char_width`` the mean per-character width.
    """

    record_id: str
    first_page: int
    last_page: int
    lines: tuple[LineBox, ...]
    text: str
    cls: str = "body"
    char_height: float = 0.0
    char_width: float = 0.0

    def __post_init__(self) -> None:
        if self.first_page > self.last_page:
            raise LabelcalError(
                f"paragraph {self.record_id}: page span "
                f"{self.first_page}..{self.last_page} decreasing"
            )
        if self.text != " ".join(line.text for line in self.lines):
            raise LabelcalError(
                f"paragraph {self.record_id}: text does not equal its lines joined by spaces"
            )

    @property
    def left_margin(self) -> int:
        return min(line.left for line in self.lines)

    @property
    def right_extent(self) -> int:
        return max(line.right for line in self.lines)

    def to_json(self) -> dict:
        return {
            "id": self.record_id,
            "first_page": self.first_page,
            "last_page": self.last_page,
            "class": self.cls,
            "text": self.text,
            "char_height": self.char_height,
            "char_width": self.char_width,
            "lines": [
                {
                    "page": l.page, "left": l.left, "top": l.top,
                    "right": l.right, "bottom": l.bottom, "text": l.text,
                }
                for l in self.lines
            ],
        }


def parse_ocr_tsv(text: str) -> OcrTokens:
    """Parse the word-box table; blank lines are skipped, and so are rows
    with blank text once their numeric fields have been read.

    The numeric fields are read by one ``np.loadtxt`` call
    (``core.read_numbers`` states their grammar) and checked as arrays.
    A table that fails anywhere goes to ``_ocr_error``, which gives the
    error of the first bad line.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise OcrFormatError("missing header row")
    header = lines[0].split("\t")
    index: dict[str, int] = {}
    for name in TSV_COLUMNS:
        if name not in header:
            raise OcrFormatError(f"missing column {name!r} in header")
        index[name] = header.index(name)
    n_cols = len(header)
    rows = list(filter(str.strip, lines[1:]))
    if not rows:
        return OcrTokens.of(())
    tabs = np.array([row.count("\t") for row in rows])
    # a writer may swallow the tab before an empty last field
    swallowed = (tabs == n_cols - 2) & (index["text"] == n_cols - 1)
    if not ((tabs == n_cols - 1) | swallowed).all():
        raise _ocr_error(lines, header, index)
    if swallowed.any():
        rows = [row + "\t" if cut else row for row, cut in zip(rows, swallowed.tolist())]
    fields = "\t".join(rows).split("\t")  # row-major, n_cols per row
    numeric = [index[name] for name in (*_INT_FIELDS, "conf")]
    chars = "".join(["".join(fields[c::n_cols]) for c in numeric])
    if not (chars.isascii() and chars.isprintable()):
        raise _ocr_error(lines, header, index)
    # surrogatepass: a lone surrogate in a text field cannot stop the
    # encoding, and loadtxt decodes as latin-1, which reads any byte
    raw = "\n".join(rows).encode("utf-8", "surrogatepass")
    try:
        table = np.loadtxt(
            io.BytesIO(raw), dtype=_ROW_DTYPE, delimiter="\t", comments=None,
            usecols=numeric, encoding="latin-1", ndmin=1,
        )
    except ValueError:
        raise _ocr_error(lines, header, index) from None
    texts = fields[index["text"] :: n_cols]
    keep = np.fromiter(map(bool, map(str.strip, texts)), dtype=bool, count=len(texts))
    values = table["fields"][keep]
    if not (
        (values[:, :5] >= 0).all()
        and (values[:, 7:] > 0).all()
        and ((-_FIELD_LIMIT < values) & (values < _FIELD_LIMIT)).all()
    ):
        raise _ocr_error(lines, header, index)
    return OcrTokens(values, table["conf"][keep], list(compress(texts, keep)))


def _ocr_error(lines: list[str], header: list[str], index: dict[str, int]) -> OcrFormatError:
    """The error of the first bad line of a table ``parse_ocr_tsv`` rejected:
    a wrong field count, a field that is not a number, or, in a row with
    text, a failed ``OcrToken`` check."""
    for n, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) == len(header) - 1 and index["text"] == len(header) - 1:
            fields.append("")  # the tab before an empty last field was swallowed
        if not line.strip():
            continue
        if len(fields) != len(header):
            return OcrFormatError(f"line {n}: {len(fields)} fields, expected {len(header)}")
        values = {}
        for name in ("conf", *_INT_FIELDS):
            value = read_numbers([fields[index[name]]], np.float64 if name == "conf" else np.int64)
            if value is None:
                return OcrFormatError(f"line {n}: non-numeric {name} field {fields[index[name]]!r}")
            values[name] = value.item()
        if fields[index["text"]].strip():
            try:
                OcrToken(*map(values.get, _INT_FIELDS), values["conf"], fields[index["text"]])
            except OcrFormatError as exc:
                return OcrFormatError(f"line {n}: {exc}")
    return OcrFormatError("numpy cannot read the word-box table")


def paragraphs_from_tokens(tokens: Iterable[OcrToken]) -> list[ParagraphRecord]:
    """Group word boxes into per-page paragraphs with layout statistics.

    One stable sort puts the words in (page, block, paragraph, line, word)
    order, so words with equal keys keep their input order; the lines of
    a paragraph are its runs of equal line numbers.  Works on the columns
    of ``OcrTokens``; any other iterable of tokens is converted first.
    """
    tokens = OcrTokens.of(tokens)
    if not len(tokens):
        return []
    order = np.lexsort(tokens.fields[:, 4::-1].T)  # the page column is the primary key
    page, block, par, line, _, left, top, width, height = tokens.fields[order].T
    texts = [tokens.texts[i] for i in order.tolist()]
    n_chars = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    new_par = (page[1:] != page[:-1]) | (block[1:] != block[:-1]) | (par[1:] != par[:-1])
    par_start = np.flatnonzero(np.r_[True, new_par])
    line_start = np.flatnonzero(np.r_[True, new_par | (line[1:] != line[:-1])])
    line_end = np.r_[line_start[1:], len(texts)]

    lines = list(map(
        LineBox,
        page[line_start].tolist(),
        np.minimum.reduceat(left, line_start).tolist(),
        np.minimum.reduceat(top, line_start).tolist(),
        np.maximum.reduceat(left + width, line_start).tolist(),
        np.maximum.reduceat(top + height, line_start).tolist(),
        [" ".join(texts[a:b]) for a, b in zip(line_start.tolist(), line_end.tolist())],
    ))
    chars = np.add.reduceat(n_chars, par_start)
    if not chars.all():
        raise LabelcalError("a paragraph's word boxes hold no text")
    char_width = (np.add.reduceat(width, par_start) / chars).tolist()
    char_height = _weighted_medians(height, n_chars, par_start).tolist()
    line_bounds = np.r_[np.searchsorted(line_start, par_start), len(lines)].tolist()

    records = []
    keys = zip(*(column[par_start].tolist() for column in (page, block, par)))
    for p, (pg, bl, pa) in enumerate(keys):
        par_lines = tuple(lines[line_bounds[p] : line_bounds[p + 1]])
        records.append(
            ParagraphRecord(
                record_id=f"p{pg:04d}_b{bl:03d}_p{pa:03d}",
                first_page=pg,
                last_page=pg,
                lines=par_lines,
                text=" ".join(line.text for line in par_lines),
                char_height=char_height[p],
                char_width=char_width[p],
            )
        )
    return records


def _weighted_medians(values: np.ndarray, weights: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``np.median(np.repeat(values, weights))`` of each run that begins at
    ``starts``, with the same bits for integer values below 2**52.

    Each run is sorted by value; the median is the mean of the values at
    the two middle positions of the repeated run (the one middle position
    twice when its length is odd), as ``np.median`` takes it.
    """
    run = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(values)]))
    order = np.lexsort((values, run))
    ends = np.cumsum(weights[order])  # one past each value's last repeated position
    totals = np.add.reduceat(weights, starts)
    base = np.cumsum(totals) - totals
    lo = values[order][np.searchsorted(ends, base + (totals - 1) // 2, side="right")]
    hi = values[order][np.searchsorted(ends, base + totals // 2, side="right")]
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# DBSCAN
# ---------------------------------------------------------------------------


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distances between all rows of an m x d array.

    The squared coordinate differences are added in coordinate order, one
    m x m array at a time.  For d < 8 this gives the bits of
    ``sqrt(((points[:, None] - points[None]) ** 2).sum(axis=-1))``, which
    numpy sums in order below 8 terms (pairwise from 8 on), without its
    m x m x d temporaries.
    """
    total = np.zeros((points.shape[0],) * 2)
    for column in points.T:
        delta = column[:, None] - column[None, :]
        total += np.square(delta, out=delta)
    return np.sqrt(total, out=total)


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Density-based clustering; returns cluster ids with -1 for noise.

    A core point has at least ``min_pts`` neighbors within ``eps``
    (inclusive, counting itself).  Clusters are the connected components
    of the core points, numbered by first-visited order over ascending
    point index; border points join the cluster of their nearest core
    neighbor (the lowest index on a tie), which makes the partition
    independent of point order.  Each component is labelled breadth-first,
    one whole frontier per step.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    return _dbscan(_pairwise_distances(points), eps, min_pts)


def _dbscan(dist: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """``dbscan`` of the points whose pairwise distances are ``dist``."""
    if eps <= 0:
        raise LabelcalError(f"eps must be > 0, got {eps}")
    if min_pts < 1:
        raise LabelcalError(f"min_pts must be >= 1, got {min_pts}")
    labels = np.full(dist.shape[0], -1, dtype=np.int64)
    if not labels.size:
        return labels
    within = dist <= eps
    core = within.sum(axis=1) >= min_pts
    to_core = within & core  # row i: the core points within eps of point i

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


def _k_distance_eps(dist: np.ndarray, min_pts: int) -> float:
    """k-distance heuristic on pairwise distances: eps at the largest jump
    of sorted k-distances."""
    m = dist.shape[0]
    k = min(min_pts, m) - 1  # distance to the min_pts'th point counting itself
    kd = np.sort(np.partition(dist, k, axis=1)[:, k]) if k >= 0 else np.zeros(m)
    if kd.size < 2 or kd[-1] == 0.0:
        return 1.0
    gaps = np.diff(kd)
    j = int(np.argmax(gaps))
    if gaps[j] == 0.0:
        return float(kd[-1]) * 1.001
    return float((kd[j] + kd[j + 1]) / 2.0)


def classify_paragraphs(
    paragraphs: Sequence[ParagraphRecord],
    eps: float | None = None,
    min_pts: int = 3,
) -> list[str]:
    """Paragraph classes from clustering (char height, char width).

    The cluster with the largest total text mass is the body; remaining
    clusters become footnote (smaller char height than the body) or
    heading (larger), extra clusters get numbered auxiliary names, and
    DBSCAN noise maps to "noise".
    """
    if not paragraphs:
        raise LabelcalError("classify_paragraphs needs at least one paragraph")
    features = np.array([[p.char_height, p.char_width] for p in paragraphs])
    std = features.std(axis=0)
    std[std == 0.0] = 1.0
    dist = _pairwise_distances((features - features.mean(axis=0)) / std)
    if eps is None:
        eps = _k_distance_eps(dist, min_pts)
    ids = _dbscan(dist, eps, min_pts)

    clusters = [c for c in np.unique(ids) if c != -1]
    mass = {
        c: sum(len(p.text) for p, i in zip(paragraphs, ids) if i == c)
        for c in clusters
    }
    heights = {
        c: float(np.median([p.char_height for p, i in zip(paragraphs, ids) if i == c]))
        for c in clusters
    }
    names: dict[int, str] = {}
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


def with_classes(
    paragraphs: Sequence[ParagraphRecord], classes: Sequence[str]
) -> list[ParagraphRecord]:
    return [replace(p, cls=c) for p, c in zip(paragraphs, classes)]


# ---------------------------------------------------------------------------
# Cross-page merging
# ---------------------------------------------------------------------------


def body_margins(paragraphs: Sequence[ParagraphRecord]) -> tuple[float, float] | None:
    """Page body margins: modal (2px-binned) line left edge, 95th
    percentile of line right edges.  None when the page has no body."""
    lines = [l for p in paragraphs if p.cls == "body" for l in p.lines]
    if not lines:
        return None
    lefts = np.array([l.left for l in lines], dtype=np.float64)
    bins = np.floor(lefts / 2.0).astype(np.int64)
    modal = min(
        np.unique(bins), key=lambda b: (-(bins == b).sum(), b)
    )
    left = float(lefts[bins == modal].mean())
    right = float(np.percentile([l.right for l in lines], 95))
    return left, right


def _join(a: ParagraphRecord, b: ParagraphRecord) -> ParagraphRecord:
    chars_a, chars_b = len(a.text), len(b.text)
    total = max(chars_a + chars_b, 1)
    return ParagraphRecord(
        record_id=a.record_id,
        first_page=a.first_page,
        last_page=b.last_page,
        lines=a.lines + b.lines,
        text=a.text + " " + b.text,
        cls="body",
        char_height=(a.char_height * chars_a + b.char_height * chars_b) / total,
        char_width=(a.char_width * chars_a + b.char_width * chars_b) / total,
    )


def merge_decision(
    last: ParagraphRecord,
    first: ParagraphRecord,
    left_page_margins: tuple[float, float],
    right_page_margins: tuple[float, float],
    mode: str = "conjunctive",
) -> bool:
    """Should the page-final paragraph continue into the page-initial one?

    Cue (a): the final line reaches the body right margin (within 1.5
    mean char widths).  Cue (b): the next page's first line is not
    indented beyond the body left margin by more than 1 mean char width.
    Both paragraphs must be body class; "conjunctive" needs both cues,
    "disjunctive" accepts either.
    """
    if last.cls != "body" or first.cls != "body":
        return False
    _, right_margin = left_page_margins
    left_margin, _ = right_page_margins
    reaches_right = (
        last.lines[-1].right >= right_margin - RIGHT_TOL_CHAR_WIDTHS * last.char_width
    )
    not_indented = (
        first.lines[0].left <= left_margin + INDENT_TOL_CHAR_WIDTHS * first.char_width
    )
    if mode == "conjunctive":
        return reaches_right and not_indented
    if mode == "disjunctive":
        return reaches_right or not_indented
    raise LabelcalError(f"unknown merge mode {mode!r}")


def merge_cross_page(
    pages: Sequence[Sequence[ParagraphRecord]], mode: str = "conjunctive"
) -> list[ParagraphRecord]:
    """Merge paragraphs across consecutive page boundaries.

    One rule application joins at most one boundary, but chains are
    allowed: a paragraph can span three pages via two merges.  Pages
    without body paragraphs are passed through with a warning and never
    merged across.
    """
    merged: list[ParagraphRecord] = []
    margins: list[tuple[float, float] | None] = []
    for n, page in enumerate(pages):
        m = body_margins(page)
        if m is None:
            warnings.warn(f"page index {n}: no body paragraphs, not merging across")
        margins.append(m)

    for n, page in enumerate(pages):
        page = list(page)
        if (
            n > 0
            and page
            and merged
            and margins[n - 1] is not None
            and margins[n] is not None
            and merged[-1].last_page == pages[n - 1][-1].last_page
            and merge_decision(merged[-1], page[0], margins[n - 1], margins[n], mode)
        ):
            merged[-1] = _join(merged[-1], page.pop(0))
        merged.extend(page)
    return merged


# ---------------------------------------------------------------------------
# Quote matching
# ---------------------------------------------------------------------------


def bow_tokens(text: str) -> list[str]:
    """Lowercased maximal alphanumeric runs."""
    return [t.lower() for t in _TOKEN_RE.findall(text)]


def bow_match_many(
    quotes: Sequence[str], paragraphs: Sequence[str]
) -> list[tuple[int, float]]:
    """Best paragraph for each quote under bag-of-words cosine distance.

    Distance is 1 - cosine similarity of token-count vectors; ties go to
    the lowest index.  A paragraph with no tokens is at distance 1.
    Every paragraph is tokenized once: an inverted index maps each quote
    token to the paragraphs containing it and their counts, so a quote's
    dot products and both norms are exact integers, as in a per-pair
    token-count loop.
    """
    if not quotes:
        return []
    if not paragraphs:
        raise LabelcalError("bow_match needs at least one paragraph")
    quote_counts = [Counter(bow_tokens(quote)) for quote in quotes]
    if not all(quote_counts):
        raise LabelcalError("quote contains no alphanumeric tokens")
    vocab = set().union(*quote_counts)
    norm2 = np.empty(len(paragraphs), dtype=np.int64)
    index: dict[str, tuple[list[int], list[int]]] = {t: ([], []) for t in vocab}
    for i, text in enumerate(paragraphs):
        counts = Counter(bow_tokens(text))
        norm2[i] = sum(v * v for v in counts.values())
        for t in vocab.intersection(counts):
            ids, cs = index[t]
            ids.append(i)
            cs.append(counts[t])
    postings = {
        t: (np.array(ids, dtype=np.int64), np.array(cs, dtype=np.int64))
        for t, (ids, cs) in index.items()
    }
    norms = np.sqrt(norm2)
    norms[norms == 0.0] = 1.0  # a token-less paragraph has dot 0: distance 1

    results = []
    for counts in quote_counts:
        q_norm = np.sqrt(sum(v * v for v in counts.values()))
        dot = np.zeros(len(paragraphs), dtype=np.int64)
        for t, q in counts.items():
            ids, cs = postings[t]
            dot[ids] += q * cs
        distance = np.maximum(0.0, 1.0 - dot / (q_norm * norms))
        best = int(np.argmin(distance))
        results.append((best, float(distance[best])))
    return results


def bow_match(quote: str, paragraphs: Sequence[str]) -> tuple[int, float]:
    """Best paragraph for one quote; see ``bow_match_many``."""
    return bow_match_many([quote], paragraphs)[0]

"""OCR post-processing: word-box parsing, paragraph assembly, paragraph
type classification and cross-page paragraph merging.

Input is the standard 12-column word-box table (level, page_num,
block_num, par_num, line_num, word_num, left, top, width, height, conf,
text).  It is read by numpy's C parser into ``OcrTokens`` columns, the
only form word boxes take: 36 bytes of int32 fields per word box,
besides its text (``conf`` is read only to check that it is a number).
A table the parser rejects is walked again row by row only to name the
first bad line.  Paragraphs are assembled from one stable sort of the
word keys and per-line array reductions, gathering one field at a time
into sorted order.  Paragraph classes come from density clustering
(DBSCAN over a grid of cells on the distinct feature points, in memory
linear in the paragraphs) on character-size statistics; page-boundary
merges use the two typographic cues - the last line reaching the right
margin and the next page's first line not being indented.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .core import LabelcalError, read_numbers, text_lines

TSV_COLUMNS = (
    "level", "page_num", "block_num", "par_num", "line_num", "word_num",
    "left", "top", "width", "height", "conf", "text",
)
# The integer fields, in ``OcrTokens.fields`` column order (page ... height).
_INT_FIELDS = TSV_COLUMNS[1:10]
# Integer fields must lie strictly inside +-2**31, so that box edges, width
# sums and the float64 statistics made from them are exact.
_FIELD_LIMIT = 2**31
_ROW_DTYPE = np.dtype([("fields", np.int64, (len(_INT_FIELDS),)), ("conf", np.float64)])
RIGHT_TOL_CHAR_WIDTHS = 1.5
INDENT_TOL_CHAR_WIDTHS = 1.0


class OcrFormatError(LabelcalError):
    """Malformed OCR word-box table."""


@dataclass(frozen=True, eq=False)
class OcrTokens:
    """Word boxes held as columns.

    ``fields`` is an (n, 9) array of the integer fields (page, block,
    paragraph, line, word, left, top, width, height) and ``texts`` the n
    word texts.  ``parse_ocr_tsv`` checks the word-box rules and gives
    int32 fields, which hold every value the rules allow (36 bytes per
    word box); the columns are not checked again.  Sums of fields are
    formed in int64.
    """

    fields: np.ndarray
    texts: list[str]

    @classmethod
    def concat(cls, parts: Iterable[OcrTokens]) -> OcrTokens:
        """The rows of ``parts``, one after another, with int32 fields.

        The columns grow in place as each part is copied (``ndarray.resize``
        reallocates them), so parts drawn from an iterator, each released
        once it is copied, are never all held beside the whole table.
        """
        fields, texts = np.empty((0, len(_INT_FIELDS)), np.int32), []
        for part in parts:
            n, m = len(texts), len(part)
            fields.resize((n + m, fields.shape[1]), refcheck=False)
            fields[n:] = part.fields
            texts += part.texts
        return cls(fields, texts)

    def __len__(self) -> int:
        return len(self.texts)


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

    def to_json(self) -> dict:
        return {
            "id": self.record_id,
            "first_page": self.first_page,
            "last_page": self.last_page,
            "class": self.cls,
            "text": self.text,
            "char_height": self.char_height,
            "char_width": self.char_width,
            "lines": [vars(line).copy() for line in self.lines],
        }


def parse_ocr_tsv(text: str) -> OcrTokens:
    """Parse the word-box table; lines end as ``core.text_lines`` says,
    blank lines are skipped, and so are rows with blank text once their
    numeric fields have been read.

    The numeric fields are read by one ``np.loadtxt`` call
    (``core.read_numbers`` states their grammar) and checked as arrays.
    A table that fails anywhere goes to ``_ocr_error``, which gives the
    error of the first bad line.
    """
    lines = text_lines(text)
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
        return OcrTokens(np.empty((0, len(_INT_FIELDS)), np.int32), [])
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
    texts = list(compress(texts, keep))
    if _word_box_error(values, texts) is not None:
        raise _ocr_error(lines, header, index)
    return OcrTokens(values.astype(np.int32), texts)


def _word_box_error(fields: np.ndarray, texts: Sequence[str]) -> str | None:
    """The rule the first bad row of the (n, 9) word-box ``fields`` breaks,
    or None.  A row's box must be positive, then its indices non-negative,
    then every field strictly inside +-2**31; the first rule it breaks in
    that order is the one named."""
    bad_box = (fields[:, 7:] <= 0).any(axis=1)
    negative = (fields[:, :5] < 0).any(axis=1)
    # two comparisons: abs() of int64's minimum wraps to itself
    outside = ((fields <= -_FIELD_LIMIT) | (fields >= _FIELD_LIMIT)).any(axis=1)
    bad = bad_box | negative | outside
    if not bad.any():
        return None
    i = int(bad.argmax())
    if bad_box[i]:
        return f"token {texts[i]!r} has non-positive box {fields[i, 7]}x{fields[i, 8]}"
    if negative[i]:
        return f"token {texts[i]!r} has a negative index"
    return f"token {texts[i]!r} has a field outside +-2**31"


def _ocr_error(lines: list[str], header: list[str], index: dict[str, int]) -> OcrFormatError:
    """The error of the first bad line of a table ``parse_ocr_tsv`` rejected:
    a wrong field count, a field that is not a number, or, in a row with
    text, a broken word-box rule."""
    for n, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) == len(header) - 1 and index["text"] == len(header) - 1:
            fields.append("")  # the tab before an empty last field was swallowed
        if not line.strip():
            continue
        if len(fields) != len(header):
            return OcrFormatError(f"line {n}: {len(fields)} fields, expected {len(header)}")
        values = []
        for name in ("conf", *_INT_FIELDS):
            value = read_numbers([fields[index[name]]], np.float64 if name == "conf" else np.int64)
            if value is None:
                return OcrFormatError(f"line {n}: non-numeric {name} field {fields[index[name]]!r}")
            values.append(value.item())
        text = fields[index["text"]]
        message = text.strip() and _word_box_error(np.array([values[1:]], np.int64), [text])
        if message:
            return OcrFormatError(f"line {n}: {message}")
    return OcrFormatError("numpy cannot read the word-box table")


def paragraphs_from_tokens(tokens: OcrTokens) -> list[ParagraphRecord]:
    """Group the word boxes of ``OcrTokens`` columns into per-page
    paragraphs with layout statistics.

    One stable sort puts the words in (page, block, paragraph, line, word)
    order, so words with equal keys keep their input order; the lines of
    a paragraph are its runs of equal line numbers.
    """
    if not len(tokens):
        return []
    keys, char_height, char_width, line_bounds, line_fields = _layout(tokens)
    lines = list(map(LineBox, *line_fields))
    records = []
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


def _layout(tokens: OcrTokens) -> tuple[list, list, list, list, list]:
    """What ``paragraphs_from_tokens`` builds its objects from, as lists:
    each paragraph's (page, block, paragraph), char height and char width,
    the bounds of its lines among all lines, and the lines' pages, lefts,
    tops, rights, bottoms and texts.  The arrays of the sort are released
    on return, before any object is made.

    Fields are gathered into sorted order column by column, never as a
    whole table.  Sums are formed in int64, exact for fields inside +-2**31
    whatever the dtype of ``tokens.fields``.
    """
    fields = tokens.fields
    order = np.lexsort(fields[:, 4::-1].T)  # the page column is the primary key
    # gathered as objects: ``order.tolist()`` would make an int per word
    texts = np.array(tokens.texts, dtype=object)[order].tolist()
    n_chars = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    par_start, line_start = _run_starts(fields, order)
    chars = np.add.reduceat(n_chars, par_start)
    if not chars.all():
        raise LabelcalError("a paragraph's word boxes hold no text")
    left, top, width, height = (fields[order, k] for k in range(5, 9))
    line_ends = np.r_[line_start[1:], len(texts)].tolist()
    return (
        fields[order[par_start], :3].tolist(),
        _weighted_medians(height, n_chars, par_start).tolist(),
        (np.add.reduceat(width, par_start, dtype=np.int64) / chars).tolist(),
        np.r_[np.searchsorted(line_start, par_start), len(line_start)].tolist(),
        [
            fields[order[line_start], 0].tolist(),
            np.minimum.reduceat(left, line_start).tolist(),
            np.minimum.reduceat(top, line_start).tolist(),
            np.maximum.reduceat(left.astype(np.int64) + width, line_start).tolist(),
            np.maximum.reduceat(top.astype(np.int64) + height, line_start).tolist(),
            [" ".join(texts[a:b]) for a, b in zip(line_start.tolist(), line_ends)],
        ],
    )


def _run_starts(fields: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions in ``order`` where a paragraph starts (a new page,
    block or paragraph number) and where a line starts (that, or a new line
    number).  The four key fields gathered for it are released on return."""
    page, block, par, line = (fields[order, k] for k in range(4))
    new_par = (page[1:] != page[:-1]) | (block[1:] != block[:-1]) | (par[1:] != par[:-1])
    par_start = np.flatnonzero(np.r_[True, new_par])
    line_start = np.flatnonzero(np.r_[True, new_par | (line[1:] != line[:-1])])
    return par_start, line_start


def _weighted_medians(values: np.ndarray, weights: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``np.median(np.repeat(values, weights))`` of each run that begins at
    ``starts``, with the same bits for integer values below 2**52.

    Each run is sorted by value; the median is the mean of the values at
    the two middle positions of the repeated run (the one middle position
    twice when its length is odd), as ``np.median`` takes it; the two are
    added in int64, so int32 values at the 2**31 edge are exact too.
    """
    run_sizes = np.diff(np.r_[starts, len(values)])
    order = np.lexsort((values, np.repeat(np.arange(len(starts)), run_sizes)))  # run, then value
    ends = np.cumsum(weights[order])  # one past each value's last repeated position
    totals = np.add.reduceat(weights, starts)
    base = np.cumsum(totals) - totals
    lo = values[order[np.searchsorted(ends, base + (totals - 1) // 2, side="right")]]
    hi = values[order[np.searchsorted(ends, base + totals // 2, side="right")]]
    return (lo.astype(np.int64) + hi) / 2


# ---------------------------------------------------------------------------
# DBSCAN
# ---------------------------------------------------------------------------


# Point pairs measured per array step.  It bounds the working memory of
# the neighbour counts, the cluster links, the border search and the
# k-distance search, whatever the number of points.
_PAIR_BLOCK = 1 << 18
# eps lies in [_MIN_EPS, 1 / _MIN_EPS]: below, a grid cell's squared side
# underflows, and distinct points can be at a rounded distance of 0 however
# many cells apart; above, it overflows.
_MIN_EPS = 2.0**-500


def dbscan(points: np.ndarray, eps: float | None, min_pts: int) -> np.ndarray:
    """Density-based clustering of finite points in the plane, an (m, 2)
    array; returns cluster ids with -1 for noise.

    A core point has at least ``min_pts`` neighbors within ``eps``
    (inclusive, counting itself).  Clusters are the connected components
    of the core points, numbered by their lowest core index; border
    points join the cluster of their nearest core neighbor (the lowest
    index on a tie), which makes the partition independent of point
    order.  ``eps=None`` takes the k-distance heuristic (see
    ``_k_distance_eps``).  Memory is O(m + cells): identical points are
    clustered once, and neither the k-distances nor the clustering make
    an m x m array (see ``_dbscan``).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise LabelcalError(f"dbscan clusters 2-D points, shape (m, 2), got shape {points.shape}")
    bad = ~np.isfinite(points).all(axis=1)
    if bad.any():
        raise LabelcalError(f"point {int(bad.argmax())}: coordinates must be finite")
    distinct, first, inverse, weight = np.unique(
        points, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    if eps is None:
        eps = _k_distance_eps(distinct, weight, min_pts)
    return _dbscan(distinct, weight, first, eps, min_pts)[inverse.reshape(-1)]


def _distances(columns: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Euclidean distances between points ``i`` and ``j`` (broadcast) of
    the d x n coordinate ``columns``.  The squared differences are added
    to 0 in coordinate order, then rooted: below 8 coordinates these are
    the bits of ``sqrt(((points[i] - points[j]) ** 2).sum(axis=-1))``."""
    total = np.zeros(np.broadcast_shapes(np.shape(i), np.shape(j)))
    for column in columns:
        delta = column[i] - column[j]
        total += np.square(delta, out=delta)
    return np.sqrt(total, out=total)


def _dbscan(
    points: np.ndarray, weight: np.ndarray, first: np.ndarray, eps: float, min_pts: int
) -> np.ndarray:
    """``dbscan`` of distinct points, the i'th standing for ``weight[i]``
    copies whose lowest index is ``first[i]``.

    The points are binned into cells of a power-of-two side with side *
    sqrt(d) <= eps, so ``points / side`` is exact and any two points of a
    cell are within eps.  A cell holding ``min_pts`` copies is all core;
    other points count their neighbours in the cells in reach.  Clusters
    are the components of cells joined by one core pair within eps
    (union-find over the cells), and a border point takes its nearest
    core point by (distance, lowest index).  Distances are measured only
    between cells in reach, ``_PAIR_BLOCK`` pairs at a time.
    """
    if not eps > 0:  # NaN fails too
        raise LabelcalError(f"eps must be > 0, got {eps}")
    if not _MIN_EPS <= eps <= 1 / _MIN_EPS:
        raise LabelcalError(f"eps must be between 2**-500 and 2**500, got {eps}")
    if min_pts < 1:
        raise LabelcalError(f"min_pts must be >= 1, got {min_pts}")
    u, d = points.shape
    labels = np.full(u, -1, dtype=np.int64)
    if not u:
        return labels
    root_d = np.sqrt(d)
    side = np.ldexp(1.0, int(np.frexp(eps / root_d)[1]) - 1)
    if side * root_d > eps:
        side /= 2
    cells = _cell_coords(points, side)
    keys = _row_keys(cells)
    # by cell, and in input order within a cell: a link check between two
    # cells then samples both evenly instead of sweeping one from its far side
    by_first = np.argsort(first)
    order = by_first[np.argsort(keys[by_first], kind="stable")]
    points, weight, first, cells, keys = (x[order] for x in (points, weight, first, cells, keys))
    start = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    n_cells = start.size
    cell_of = np.repeat(np.arange(n_cells), np.diff(np.r_[start, u]))
    a, b = _neighbour_cells(cells[start], keys[start], eps / side)
    columns = np.ascontiguousarray(points.T)

    core = (np.add.reduceat(weight, start) >= min_pts)[cell_of]
    count = np.zeros(u)
    for i, j, _ in _pair_blocks(a, b, _members(cell_of, ~core, n_cells),
                                _members(cell_of, np.ones(u, bool), n_cells)):
        near = _distances(columns, i, j) <= eps
        count += np.bincount(i[near], weight[j[near]], minlength=u)
    core |= count >= min_pts

    # clusters: components of the cells joined by a core pair within eps
    cores = _members(cell_of, core, n_cells)
    core_size = cores[2]
    link = (a < b) & (core_size[a] > 0) & (core_size[b] > 0)
    a_link, b_link = a[link], b[link]
    root = np.arange(n_cells)
    while True:
        apart = root[a_link] != root[b_link]
        a_link, b_link = a_link[apart], b_link[apart]
        if not a_link.size:
            break
        work = np.cumsum(core_size[a_link] * core_size[b_link])
        n = max(1, int(np.searchsorted(work, _PAIR_BLOCK, side="right")))
        a_batch, b_batch, a_link, b_link = a_link[:n], b_link[:n], a_link[n:], b_link[n:]
        for i, j, c in _pair_blocks(a_batch, b_batch, cores, cores):
            hit = c[_distances(columns, i, j) <= eps]
            _union(root, a_batch[hit], b_batch[hit])
            if (root[a_batch] == root[b_batch]).all():
                break
    component = root[cell_of[core]]
    unused = np.iinfo(np.int64).max
    lowest = np.full(n_cells, unused)
    np.minimum.at(lowest, component, first[core])
    used = np.flatnonzero(lowest < unused)
    number = np.empty(n_cells, dtype=np.int64)
    number[used[np.argsort(lowest[used])]] = np.arange(used.size)
    labels[core] = number[component]

    # border points: the nearest core point within eps, lowest index on a tie
    best = np.full(u, np.inf)
    nearest = np.full(u, -1)
    for i, j, _ in _pair_blocks(a, b, _members(cell_of, ~core, n_cells), cores):
        dist = _distances(columns, i, j)
        near = dist <= eps
        by = np.lexsort((first[j[near]], dist[near], i[near]))
        i, j, dist = i[near][by], j[near][by], dist[near][by]
        lead = np.unique(i, return_index=True)[1]  # each point's nearest in this block
        i, j, dist = i[lead], j[lead], dist[lead]
        old = nearest[i]
        better = (old < 0) | (dist < best[i]) | ((dist == best[i]) & (first[j] < first[old]))
        best[i[better]], nearest[i[better]] = dist[better], j[better]
    border = nearest >= 0
    labels[border] = labels[nearest[border]]
    out = np.empty_like(labels)
    out[order] = labels
    return out


def _cell_coords(points: np.ndarray, side: float) -> np.ndarray:
    """Integer cells ``floor(points / side)``, exact for a power-of-two
    side.  A coordinate 2**62 or more cells from 0, where neighbouring
    floats are 2**10 or more cells apart, gets a cell of its own at least
    16 cells from any other, so it is never in reach of a different
    value."""
    with np.errstate(over="ignore"):
        scaled = points / side
    far = ~(np.abs(scaled) < 2.0**62)  # inf too
    cells = np.floor(np.where(far, 0.0, scaled)).astype(np.int64)
    for axis in np.flatnonzero(far.any(axis=0)):
        values = points[far[:, axis], axis]
        rank = np.unique(values, return_inverse=True)[1].reshape(-1)
        cells[far[:, axis], axis] = np.sign(values).astype(np.int64) * (2**62 + 16 * rank)
    return cells


def _row_keys(cells: np.ndarray) -> np.ndarray:
    """One bytes key per row of int64 ``cells``, ordered as the rows are
    lexicographically: big-endian with the sign bit flipped."""
    flipped = cells.view(np.uint64) ^ np.uint64(1 << 63)
    return flipped.astype(">u8").view(f"V{8 * cells.shape[1]}").reshape(-1)


def _neighbour_cells(
    cells: np.ndarray, keys: np.ndarray, reach: float
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (a, b) of the distinct, key-sorted ``cells`` that can hold two
    points within ``reach`` cell sides: each offset whose nearest corners
    are in reach, with a margin for rounding.  Both orders are listed, and
    every cell with itself."""
    d = cells.shape[1]
    extent = cells.max(axis=0).astype(np.float64) - cells.min(axis=0)
    box = np.minimum(np.ceil(reach) + 1, extent).astype(np.int64)
    grid = np.stack(np.meshgrid(*(np.arange(-r, r + 1) for r in box), indexing="ij"), axis=-1)
    grid = grid.reshape(-1, d)
    gap = np.maximum(np.abs(grid) - 1, 0)
    a, b = [], []
    for offset in grid[(gap**2).sum(axis=1) <= reach**2 * (1 + 2.0**-40)]:
        target = _row_keys(cells + offset)
        at = np.searchsorted(keys, target).clip(max=keys.size - 1)
        found = np.flatnonzero(keys[at] == target)
        a.append(found)
        b.append(at[found])
    return np.concatenate(a), np.concatenate(b)


def _members(cell_of: np.ndarray, mask: np.ndarray, n_cells: int):
    """The points of ``mask`` (in cell order), with each cell's first
    position among them and its count."""
    index = np.flatnonzero(mask)
    size = np.bincount(cell_of[index], minlength=n_cells)
    return index, np.cumsum(size) - size, size


def _pair_blocks(a: np.ndarray, b: np.ndarray, left, right):
    """(i, j, c) for every ``left`` member i of cell a[c] and every
    ``right`` member j of cell b[c], ``_PAIR_BLOCK`` pairs at a time."""
    (left_index, left_start, left_size), (right_index, right_start, right_size) = left, right
    work = left_size[a] * right_size[b]
    ends = np.cumsum(work)
    total = int(ends[-1]) if ends.size else 0
    for lo in range(0, total, _PAIR_BLOCK):
        t = np.arange(lo, min(lo + _PAIR_BLOCK, total))
        c = np.searchsorted(ends, t, side="right")
        r = t - (ends[c] - work[c])
        width = right_size[b[c]]
        yield (left_index[left_start[a[c]] + r // width],
               right_index[right_start[b[c]] + r % width], c)


def _union(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the components of cells a[i] and b[i]; ``root[c]`` stays the
    smallest cell of c's component."""
    while True:
        ra, rb = root[a], root[b]
        apart = ra != rb
        if not apart.any():
            return
        np.minimum.at(root, np.maximum(ra, rb)[apart], np.minimum(ra, rb)[apart])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root[:] = up


def _k_distance_eps(points: np.ndarray, weight: np.ndarray, min_pts: int) -> float:
    """k-distance heuristic on distinct points, the i'th standing for
    ``weight[i]`` copies: eps at the first largest jump of the sorted
    k-distances.  Copies add only zero jumps, so the jumps are taken
    between the distinct k-distances."""
    m = int(weight.sum())
    k = min(min_pts, m) - 1  # distance to the min_pts'th point counting itself
    if m < 2 or k < 0:
        return 1.0
    kd = np.unique(_k_distances(points, weight, k))
    if kd[-1] == 0.0:
        return 1.0
    if kd.size == 1:  # every k-distance the same: no jump
        return float(kd[-1]) * 1.001
    j = int(np.argmax(np.diff(kd)))
    return float((kd[j] + kd[j + 1]) / 2.0)


def _k_distances(points: np.ndarray, weight: np.ndarray, k: int) -> np.ndarray:
    """Each distinct point's k'th smallest distance (from 0) to all the
    copies, its own included.

    The points are sorted along their widest axis, and each point looks
    at a window of its sorted neighbours that doubles until no point
    outside can be nearer than the k'th found: a distance is never less
    than the one made of its coordinate difference along that axis.
    """
    u = points.shape[0]
    axis = int(np.argmax(np.ptp(points, axis=0)))
    order = np.argsort(points[:, axis], kind="stable")
    columns = np.ascontiguousarray(points[order].T)
    weight = weight[order]
    x = columns[axis]
    kd = np.zeros(u)
    todo = np.flatnonzero(weight <= k)  # a point with more copies is at 0
    half = k
    while todo.size:
        span = np.arange(-half, half + 1)
        rows = max(1, _PAIR_BLOCK // span.size)
        left = []
        for lo in range(0, todo.size, rows):
            p = todo[lo : lo + rows]
            q = p[:, None] + span
            inside = (q >= 0) & (q < u)
            q = q.clip(0, u - 1)
            dist = np.where(inside, _distances(columns, p[:, None], q), np.inf)
            by = np.argsort(dist, axis=1, kind="stable")
            reached = np.cumsum(np.take_along_axis(np.where(inside, weight[q], 0), by, 1), 1)
            kth = np.take_along_axis(dist, by, 1)[np.arange(p.size), (reached > k).argmax(axis=1)]
            below, above = p - half - 1, p + half + 1
            done = (
                (reached[:, -1] > k)
                & ((below < 0) | (np.sqrt(np.square(x[below.clip(0)] - x[p])) >= kth))
                & ((above >= u) | (np.sqrt(np.square(x[above.clip(max=u - 1)] - x[p])) >= kth))
            )
            kd[p[done]] = kth[done]
            left.append(p[~done])
        todo = np.concatenate(left)
        half *= 2
    out = np.empty(u)
    out[order] = kd
    return out


def classify_paragraphs(
    paragraphs: Sequence[ParagraphRecord],
    eps: float | None = None,
    min_pts: int = 3,
) -> list[str]:
    """Paragraph classes from clustering (char height, char width).

    The cluster with the largest total text mass is the body; remaining
    clusters become footnote (smaller char height than the body) or
    heading (larger), extra clusters get numbered auxiliary names, and
    DBSCAN noise maps to "noise".  ``eps`` defaults to ``dbscan``'s
    k-distance heuristic on the standardised features.
    """
    if not paragraphs:
        raise LabelcalError("classify_paragraphs needs at least one paragraph")
    features = np.array([[p.char_height, p.char_width] for p in paragraphs])
    with np.errstate(over="ignore", invalid="ignore"):  # finite sizes near 1e308 overflow
        std = features.std(axis=0)
        std[std == 0.0] = 1.0
        scaled = (features - features.mean(axis=0)) / std
    for rows, problem in ((features, "must be finite"), (scaled, "overflow when standardised")):
        bad = ~np.isfinite(rows).all(axis=1)
        if bad.any():
            raise LabelcalError(f"paragraph {paragraphs[int(bad.argmax())].record_id}: "
                                f"char_height and char_width {problem}")
    ids = dbscan(scaled, eps, min_pts)

    names: dict[int, str] = {}
    n_clusters = int(ids.max()) + 1
    if n_clusters:
        member = ids >= 0
        lengths = np.fromiter((len(p.text) for p in paragraphs), np.float64, len(paragraphs))
        mass = np.bincount(ids[member], lengths[member], minlength=n_clusters)
        by_cluster = features[member, 0][np.argsort(ids[member], kind="stable")]
        ends = np.cumsum(np.bincount(ids[member], minlength=n_clusters))
        heights = [float(np.median(h)) for h in np.split(by_cluster, ends[:-1])]
        by_mass = sorted(range(n_clusters), key=lambda c: (-mass[c], c))
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
    return ["noise" if i == -1 else names[i] for i in ids.tolist()]


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
    values, counts = np.unique(bins, return_counts=True)
    modal = values[counts.argmax()]  # the first maximum: ties go to the smaller bin
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


def _check_merge_mode(mode: str) -> None:
    if mode not in ("conjunctive", "disjunctive"):
        raise LabelcalError(f"unknown merge mode {mode!r}")


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
    _check_merge_mode(mode)
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
    return reaches_right or not_indented


def merge_cross_page(
    pages: Sequence[Sequence[ParagraphRecord]], mode: str = "conjunctive"
) -> list[ParagraphRecord]:
    """Merge paragraphs across consecutive page boundaries.

    One rule application joins at most one boundary, but chains are
    allowed: a paragraph can span three pages via two merges.  Pages
    without body paragraphs are passed through with a warning that names
    the page number, and never merged across.
    """
    _check_merge_mode(mode)
    merged: list[ParagraphRecord] = []
    margins: list[tuple[float, float] | None] = []
    for n, page in enumerate(pages):
        m = body_margins(page)
        if m is None:
            where = f"page {page[0].first_page}" if page else f"empty page at position {n}"
            warnings.warn(f"{where}: no body paragraphs, not merging across")
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

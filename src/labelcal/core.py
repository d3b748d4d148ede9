"""Shared data model: probability/annotation matrices, ensembles, file I/O,
and the text-corpus tools (substring filter, quote matching).

The module imports no numpy: each function that makes or reads an array
imports it, so a process that builds none (the text stages, ``--version``)
never loads it.  The command line sets its OpenBLAS default before any
such import.

Input files are read by ``read_input`` as strict UTF-8: a bad byte is a data
error naming path, line and byte offset.  Line-based inputs end a line at
``\\n``, ``\\r\\n`` or ``\\r`` (``text_lines``); matrices follow ``csv``.
Matrices are stored as CSV with a label-name header row.  Values are
written with 17 significant digits so that a load -> save -> load cycle
is bit-identical; cells that are exactly +0.0 or 1.0, most of a
truncated matrix, are written as ``0`` and ``1`` without being formatted
(``format_matrix``).  Values are read by numpy's C parser
(``read_numbers`` gives the number grammar); a file it rejects is walked
again only to name the first bad row and cell.  Text corpora are
JSON-lines records with ``id`` and ``text`` fields.  Files are written
through ``atomic_files``, which moves a group of distinct files (a
command-line run's outputs and its manifest) in whole or not at all: a
failure leaves no partial output and keeps the files it would have
replaced.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
import sys
import unicodedata
from array import array
from collections import Counter
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TypeVar

if TYPE_CHECKING:
    import numpy as np

# Probabilities this far outside [0, 1] are treated as float round-trip
# noise and clamped; anything larger is a data error.
RANGE_TOLERANCE = 1e-9

# Defaults of the stage modules, kept here so that building the command
# line parser loads no stage module.
DEFAULT_CANDIDATES = 100_000  # folds
DEFAULT_GRID_STEP = 0.01  # calibration
DEFAULT_LOW_RANGE = (0.0, 0.5)
DEFAULT_HIGH_RANGE = (0.5, 1.0)
DEFAULT_ECE_BINS = 10  # metrics
DEFAULT_REPS = 100  # sampling
DEFAULT_SIZE_GRID = (50, 300, 10)  # first size, last size, step


class LabelcalError(Exception):
    """Base class for data and usage errors raised by this package."""


class MatrixFormatError(LabelcalError, ValueError):
    """Malformed matrix file (bad header, bad value, bad shape)."""


class MalformedNumberError(MatrixFormatError):
    pass


class ValueRangeError(MatrixFormatError):
    pass


class RaggedRowError(MatrixFormatError):
    pass


class DuplicateLabelError(MatrixFormatError):
    pass


def integer_ids(values, noun: str, name: str, stop: int | None = None) -> np.ndarray:
    """``values`` (the argument ``name``, one ``noun`` per item) as an int64
    vector.  Integer-valued floats are taken; any value int64 cannot hold
    exactly, or with ``stop`` an id outside [0, stop), is a
    ``LabelcalError`` naming the item, never cast."""
    import numpy as np

    ids = np.asarray(values)
    if ids.ndim != 1:
        raise LabelcalError(f"{name} must be a vector, got shape {ids.shape}")
    if ids.dtype.kind not in "biuf":
        raise LabelcalError(f"{name} must be integers, got {ids.dtype}")
    with np.errstate(invalid="ignore"):  # NaN, inf and values past int64 fail the test below
        cast = ids.astype(np.int64)
    bad = cast != ids
    if bad.any():
        i = int(bad.argmax())
        raise LabelcalError(f"{noun} {ids[i].item()!r} of item {i} is not an integer within int64")
    if stop is not None:
        outside = (cast < 0) | (cast >= stop)
        if outside.any():
            i = int(outside.argmax())
            raise LabelcalError(f"{noun} {cast[i]} of item {i} is out of range [0, {stop})")
    return cast


def _check_labels(labels: Sequence[str]) -> tuple[str, ...]:
    labels = tuple(str(name) for name in labels)
    for i, name in enumerate(labels):
        if not name:
            raise DuplicateLabelError(f"empty label name at column {i + 1}")
    seen: dict[str, int] = {}
    for i, name in enumerate(labels):
        if name in seen:
            raise DuplicateLabelError(
                f"duplicate label name {name!r} at columns {seen[name] + 1} and {i + 1}"
            )
        seen[name] = i
    return labels


def _check_shape(labels: Sequence[str], values: np.ndarray) -> tuple[str, ...]:
    """The checked ``labels`` of a 2-D ``values`` with one column per label."""
    labels = _check_labels(labels)
    if values.ndim != 2:
        raise MatrixFormatError(f"expected a 2-D array, got shape {values.shape}")
    if values.shape[1] != len(labels):
        raise RaggedRowError(f"matrix has {values.shape[1]} columns but {len(labels)} labels")
    return labels


@dataclass(frozen=True)
class ProbMatrix:
    """N x L matrix of prediction probabilities in [0, 1].

    Rows are items, columns are named labels.  Immutable after
    construction; the underlying array is marked read-only.
    """

    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        values = np.asarray(self.values, dtype=np.float64)
        labels = _check_shape(self.labels, values)
        if not np.all(np.isfinite(values)):
            i, j = np.argwhere(~np.isfinite(values))[0]
            raise MalformedNumberError(
                f"non-finite value at row {i + 1}, column {labels[j]!r}"
            )
        low = values < 0.0
        high = values > 1.0
        if low.any() or high.any():
            bad = (values < -RANGE_TOLERANCE) | (values > 1.0 + RANGE_TOLERANCE)
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise ValueRangeError(
                    f"value {float(values[i, j])!r} outside [0, 1] at row {i + 1}, "
                    f"column {labels[j]!r}"
                )
            values = np.clip(values, 0.0, 1.0)
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)

    @property
    def n_items(self) -> int:
        return self.values.shape[0]

    @property
    def n_labels(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LabelMatrix:
    """N x L binary annotation matrix.

    ``kind`` is ``"multilabel"`` (any number of labels per row) or
    ``"multiclass"`` (exactly one label per row; a one-hot matrix).
    """

    labels: tuple[str, ...]
    values: np.ndarray
    kind: str = "multilabel"

    def __post_init__(self) -> None:
        if self.kind not in ("multilabel", "multiclass"):
            raise MatrixFormatError(f"unknown label matrix kind {self.kind!r}")
        import numpy as np

        values = np.asarray(self.values)
        labels = _check_shape(self.labels, values)
        as_float = values.astype(np.float64)
        bad = (as_float != 0.0) & (as_float != 1.0)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueRangeError(
                f"annotation entry {float(as_float[i, j])!r} is not 0 or 1 at row {i + 1}, "
                f"column {labels[j]!r}"
            )
        values = as_float.astype(np.int8)
        if self.kind == "multiclass":
            sums = values.sum(axis=1)
            off = np.nonzero(sums != 1)[0]
            if off.size:
                raise ValueRangeError(
                    f"multiclass row {off[0] + 1} has {sums[off[0]]} labels set, expected 1"
                )
        values.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)

    @property
    def n_items(self) -> int:
        return self.values.shape[0]

    @property
    def n_labels(self) -> int:
        return self.values.shape[1]

    def class_indices(self) -> np.ndarray:
        """Class index per row (multiclass view)."""
        if self.kind != "multiclass":
            raise LabelcalError("class_indices is only defined for multiclass matrices")
        import numpy as np

        return np.argmax(self.values, axis=1)

    @staticmethod
    def from_class_indices(classes: Sequence[int]) -> "LabelMatrix":
        """One-hot rows over labels ``class_0`` .. ``class_<max>``."""
        import numpy as np

        classes = integer_ids(classes, "class", "classes")
        k = int(classes.max()) + 1 if classes.size else 0
        classes = integer_ids(classes, "class", "classes", k)  # names a negative class
        values = np.zeros((classes.size, k), dtype=np.int8)
        values[np.arange(classes.size), classes] = 1
        return LabelMatrix(tuple(f"class_{j}" for j in range(k)), values, kind="multiclass")


@dataclass(frozen=True)
class EnsembleSet:
    """Predictions of the per-fold models, all on the same items and labels;
    member f was trained without fold f."""

    members: tuple[ProbMatrix, ...]

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if not members:
            raise LabelcalError("ensemble needs at least one member")
        first = members[0]
        for m, member in enumerate(members[1:], start=1):
            if member.values.shape != first.values.shape or member.labels != first.labels:
                raise MatrixFormatError(
                    f"ensemble member {m} has shape {member.values.shape} / labels "
                    f"{member.labels}, expected {first.values.shape} / {first.labels}"
                )
        object.__setattr__(self, "members", members)


# ---------------------------------------------------------------------------
# File input and output
# ---------------------------------------------------------------------------


def _sibling(path: str) -> str:
    """A new hidden file name in the directory of ``path``."""
    head, tail = os.path.split(path)
    return os.path.join(head, f".{tail}.{os.getpid()}.{os.urandom(4).hex()}.tmp")


@contextmanager
def atomic_files(paths: Sequence[str]) -> Iterator[list[IO[str]]]:
    """One UTF-8 text file per path, moved onto ``paths`` together or not at all.

    Text goes untranslated to a new temporary file beside each target.  On
    normal exit all of them are closed, then ``os.replace``d in order, each
    existing target first hard-linked to a name beside it.  If the block or
    a replace fails, the temporary files are removed, the targets already
    replaced get their old file back (or are removed if there was none),
    and the error, naming the target, goes on.
    """
    paths = [os.fspath(path) for path in paths]
    handles, kept, moved = [], [None] * len(paths), 0
    try:
        for path in paths:
            try:
                handles.append(open(_sibling(path), "x", encoding="utf-8", newline=""))
            except FileNotFoundError as exc:  # name the target, not the temporary file
                raise FileNotFoundError(exc.errno, exc.strerror, path) from None
        yield handles
        for fh in handles:
            fh.close()
        for i, (fh, path) in enumerate(zip(handles, paths)):
            with suppress(OSError):  # none to keep: no file, a directory, or no hard links here
                os.link(path, old := _sibling(path), follow_symlinks=False)
                kept[i] = old
            try:
                os.replace(fh.name, path)
            except OSError as exc:
                raise type(exc)(exc.errno, exc.strerror, path) from None
            moved += 1
    except BaseException:
        for fh in handles:
            with suppress(OSError):  # a failed flush must not stop the cleanup
                fh.close()
        for i, (fh, path, old) in enumerate(zip(handles, paths, kept)):
            if i >= moved:
                os.unlink(fh.name)
                if old:
                    os.unlink(old)
            elif old:  # the target gets its old file back
                os.replace(old, path)
            else:
                os.unlink(path)
        raise
    for old in filter(None, kept):
        os.unlink(old)


_Parsed = TypeVar("_Parsed")

# SHA-256 by path of each input the run in progress read; None, outside a run, hashes nothing
input_digests: ContextVar[dict[str, str] | None] = ContextVar("input_digests", default=None)


def read_input(path: str, parse: Callable[[str], _Parsed]) -> _Parsed:
    """``parse`` of the text of the file at ``path``: its bytes read once,
    digested into ``input_digests`` when a run records them, decoded as
    strict UTF-8 with line ends kept, and released before ``parse`` runs.
    A byte that is not UTF-8 is a ``LabelcalError`` naming its line and
    offset; it and any ``LabelcalError`` of ``parse`` name ``path`` first."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if (digests := input_digests.get()) is not None:
        digests[str(path)] = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = exc.start
        line = 1 + raw.count(b"\n", 0, at) + raw.count(b"\r", 0, at) - raw.count(b"\r\n", 0, at)
        raise LabelcalError(
            f"{path}: invalid UTF-8 on line {line} at byte offset {at}: {exc.reason}"
        ) from None
    del raw
    try:
        return parse(text)
    except LabelcalError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def text_lines(text: str) -> list[str]:
    """The lines of ``text`` without their ends, as a file read in text mode
    gives them: ended at ``\\n``, ``\\r\\n`` or ``\\r`` only."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:  # the text ends with a line end, or is empty
        lines.pop()
    return lines


# ---------------------------------------------------------------------------
# Matrix file I/O
# ---------------------------------------------------------------------------


# Numbers are what numpy's C parser (``np.loadtxt``) reads, limited to
# printable ASCII: loadtxt would also strip \x1c-\x1f as whitespace.
_PRINTABLE = bytes(range(0x20, 0x7F))
_NOT_LINE_END = re.compile(rb"[^\r\n]")


def read_numbers(fields: Sequence[str], dtype: type | str = float) -> np.ndarray | None:
    """``fields`` read as one ``dtype`` number each, or None if one is not a number.

    This is the number grammar of the numeric fields of every input file:
    printable ASCII that ``np.loadtxt`` reads as one value, such as
    ``" +1.5e3"`` or ``"nan"``, but not ``"1_0"`` or non-ASCII digits,
    which ``float()`` reads.  The error paths use it to find the bad cell.
    """
    import numpy as np

    if not fields:  # np.loadtxt would warn of an empty input
        return np.empty(0, dtype)
    if not all(field and field.isascii() and field.isprintable() for field in fields):
        return None
    try:
        values = np.loadtxt(fields, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    return values if values.shape == (len(fields),) else None


def _read_header(text: str) -> tuple[tuple[str, ...], int, int]:
    """Labels of the first non-blank ``csv`` row of ``text``, the offset just
    past that row, and the number of lines it took up to there.

    ``csv`` is fed one line at a time, so a quoted label may hold commas
    and line breaks, and the body is never copied into a line list.
    """
    end = 0

    def lines() -> Iterator[str]:
        nonlocal end
        while end < len(text):
            start, end = end, text.find("\n", end) + 1 or len(text)
            yield text[start:end]

    reader = csv.reader(lines())
    try:
        header = next(filter(None, reader), None)
    except csv.Error as exc:  # e.g. CR-only line ends, which csv cannot split
        raise MatrixFormatError(f"malformed CSV on line {reader.line_num}: {exc}") from None
    if header is None:
        raise MatrixFormatError("missing header row")
    return _check_labels(header), end, reader.line_num


def _parse_rows(text: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Label header and float64 values of a matrix CSV text.

    The text is encoded once.  When the body in those bytes is printable
    ASCII (one ``translate``), ``np.loadtxt`` reads it from the header's
    end (quoted cells included, blank lines skipped).  A body it
    cannot read as one number per label in every row goes to
    ``_matrix_error``, which gives the error of the first bad row.
    """
    import numpy as np

    labels, start, header_lines = _read_header(text)
    raw = text.encode()
    skip = len(text[:start].encode())  # bytes of the header
    if not _NOT_LINE_END.search(raw, skip):  # no data rows
        return labels, np.empty((0, len(labels)))
    data = None
    # translate keeps what the header keeps, then what the body keeps
    allowed = _PRINTABLE + b"\r\n"
    if len(raw.translate(None, allowed)) == len(raw[:skip].translate(None, allowed)):
        body = io.BytesIO(raw)
        body.seek(skip)
        try:
            data = np.loadtxt(body, delimiter=",", comments=None, quotechar='"',
                              ndmin=2, encoding="ascii")
        except ValueError:
            pass
    if data is None or data.shape[1] != len(labels):
        raise _matrix_error(text[start:], labels, header_lines)
    return labels, data


def _matrix_error(body: str, labels: tuple[str, ...], line: int) -> MatrixFormatError:
    """The error of a matrix body ``np.loadtxt`` rejected: its first row
    with the wrong number of cells or a cell that is not a number."""
    reader = csv.reader(io.StringIO(body))
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:
        return MatrixFormatError(f"malformed CSV on line {line + reader.line_num}: {exc}")
    for r, row in enumerate(rows, start=1):
        if len(row) != len(labels):
            return RaggedRowError(f"row {r} has {len(row)} fields, expected {len(labels)}")
        # inside quotes, numpy reads a line break as a space
        cells = [cell.replace("\r", " ").replace("\n", " ") for cell in row]
        if read_numbers(cells) is None:
            c = next(c for c, cell in enumerate(cells) if read_numbers([cell]) is None)
            return MalformedNumberError(
                f"malformed number {row[c]!r} at row {r}, column {labels[c]!r}"
            )
    return MatrixFormatError("numpy cannot read the matrix body")


_Matrix = TypeVar("_Matrix", ProbMatrix, LabelMatrix)


def _load_matrix(path: str, build: Callable[[tuple[str, ...], np.ndarray], _Matrix]) -> _Matrix:
    return read_input(path, lambda text: build(*_parse_rows(text)))


def load_prob_matrix(path: str) -> ProbMatrix:
    """Read a probability matrix from a CSV file with a label header."""
    return _load_matrix(path, ProbMatrix)


def load_label_matrix(path: str, kind: str = "multilabel") -> LabelMatrix:
    """Read a binary annotation matrix from a CSV file with a label header."""
    return _load_matrix(path, lambda labels, data: LabelMatrix(labels, data, kind))


# A block of matrix rows is one % call, whose format string is made of
# two-character units: a cell that is exactly +0.0 or 1.0 takes one, "0,"
# or "1," ("0\n" or "1\n" at the end of its row); any other takes three,
# "%." "17" "g," ("g\n").  Their indices in the table:
_UNITS = b"0,1,0\n1\n%.17g,g\n"
_ROW_END, _FORMAT, _DIGITS, _TAIL = 2, 4, 5, 6
_BLOCK_CELLS = 1 << 16


def format_matrix(labels: Sequence[str], values: np.ndarray) -> str:
    """Render a matrix (or a vector, as one column) as CSV text.

    Every value is written as ``"%.17g" % value`` writes it, so that a
    load -> save -> load cycle is bit-identical.  Each block of rows is one
    ``%`` call: its format string holds the cells that are exactly +0.0 or
    1.0 as the literals ``0`` and ``1``, and ``%.17g`` for every other cell
    (-0.0, NaN and the infinities included).
    """
    import numpy as np

    units = np.frombuffer(_UNITS, np.uint16)
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    n, k = values.shape
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(labels)
    if not k:
        return out.getvalue() + "\n" * n
    row_end = np.arange(k) == k - 1
    rows = max(1, _BLOCK_CELLS // k)
    for start in range(0, n, rows):
        block = values[start:start + rows]
        one = block == 1.0
        loose = ~one & ((block != 0.0) | np.signbit(block))
        ends = np.broadcast_to(row_end, block.shape)
        size = 1 + 2 * loose.ravel()
        at = np.cumsum(size) - size  # each cell's first unit
        fmt = np.full(at[-1] + size[-1], units[_DIGITS])
        fmt[at] = units[np.where(loose, _FORMAT, one + _ROW_END * ends).ravel()]
        fmt[at[size == 3] + 2] = units[_TAIL + ends[loose]]
        out.write(fmt.tobytes().decode("ascii") % tuple(block[loose].tolist()))
    return out.getvalue()


# ---------------------------------------------------------------------------
# Text corpora
# ---------------------------------------------------------------------------


def load_texts(path: str) -> list[dict]:
    """Read a JSON-lines corpus; every record needs ``id`` and a string ``text``."""

    def parse(text: str) -> list[dict]:
        records = []
        for n, line in enumerate(text_lines(text), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LabelcalError(f"invalid JSON on line {n}: {exc}") from None
            if not isinstance(record, dict) or "id" not in record or "text" not in record:
                raise LabelcalError(f"line {n} lacks 'id' or 'text' field")
            if not isinstance(record["text"], str):
                raise LabelcalError(f"line {n}: 'text' is not a string")
            records.append(record)
        return records

    return read_input(path, parse)


def format_json(payload) -> str:
    """Render a payload as pretty JSON: sorted keys, two-space indent."""
    return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def format_texts(records: Iterable[dict]) -> str:
    """Render records as JSON lines, one sorted-key record per line."""
    return "".join(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"
                   for record in records)


def substring_filter(
    texts: Sequence[str], needle: str, case_fold: bool = False
) -> list[int]:
    """Indices of texts containing ``needle`` as a contiguous substring.

    Text and needle are NFC-normalized before matching; with
    ``case_fold`` both sides are additionally case-folded.  The default
    is an exact match on the literal needle.
    """
    if not needle:
        raise LabelcalError("substring_filter needs a non-empty needle")
    needle = unicodedata.normalize("NFC", needle)
    if case_fold:
        needle = needle.casefold()
    hits = []
    for i, text in enumerate(texts):
        hay = unicodedata.normalize("NFC", text)
        if case_fold:
            hay = hay.casefold()
        if needle in hay:
            hits.append(i)
    return hits


_TOKEN_RE = re.compile(r"[^\W_]+")

# A quote token in more than one paragraph in this many has its counts
# packed into one integer (see bow_match_many), a field for every
# paragraph; a rarer one is added one posting at a time.
_PACKED_SHARE = 16


def _bow_tokens(text: str) -> list[str]:
    """Lowercased maximal alphanumeric runs.

    Lowercasing the whole text first gives the same runs when every
    character lowercases to one character (the text keeps its length) and
    there is no capital sigma, whose lowercase depends on the letters
    around it; otherwise each run is lowercased on its own.  No run
    crosses whitespace, and a whitespace-separated word that is all
    alphanumeric (``str.isalnum``, the class of ``_TOKEN_RE``) is one run.
    """
    lower = text.lower()
    if len(lower) != len(text) or "\u03a3" in text:
        return [t.lower() for t in _TOKEN_RE.findall(text)]
    tokens = []
    for word in lower.split():
        if word.isalnum():
            tokens.append(word)
        else:
            tokens += _TOKEN_RE.findall(word)
    return tokens


def bow_match_many(
    quotes: Sequence[str], paragraphs: Sequence[str]
) -> list[tuple[int, float]]:
    """Best paragraph for each quote under bag-of-words cosine distance.

    Distance is 1 - cosine similarity of token-count vectors, clamped at
    0; ties go to the lowest index.  A paragraph with no tokens is at
    distance 1.  Every paragraph is tokenized once: an inverted index maps
    each quote token to the paragraphs containing it and their counts, so
    a quote's dot products and both norms are exact integers, as in a
    per-pair token-count loop, and each distance is computed as
    ``1.0 - dot / (q_norm * norm)``.

    The counts of a token found in many paragraphs are also packed into
    one integer, a fixed-width field per paragraph wide enough for any dot
    product, so a quote sums its dot products over those tokens in a few
    big-integer operations and unpacks the fields.
    """
    if not quotes:
        return []
    if not paragraphs:
        raise LabelcalError("bow_match_many needs at least one paragraph")
    quote_counts = [Counter(_bow_tokens(quote)) for quote in quotes]
    for i, counts in enumerate(quote_counts):
        if not counts:
            raise LabelcalError(f"quote at index {i} contains no alphanumeric tokens")
    vocab = set().union(*quote_counts)
    norms = []
    index: dict[str, tuple[list[int], list[int]]] = {t: ([], []) for t in vocab}
    for i, text in enumerate(paragraphs):
        counts = Counter(_bow_tokens(text))
        norms.append(math.sqrt(sum(v * v for v in counts.values())))
        for t in vocab.intersection(counts):
            ids, cs = index[t]
            ids.append(i)
            cs.append(counts[t])

    # no dot product exceeds a quote's token total times the largest count
    largest = max(sum(counts.values()) for counts in quote_counts) * max(
        (max(cs) for _, cs in index.values() if cs), default=0
    )
    code = next((c for c in "BHIQ" if largest < 256 ** array(c).itemsize), None)
    if code is None:
        raise LabelcalError("token counts too large for quote matching")
    size = len(paragraphs) * array(code).itemsize
    packed = {}
    for t, (ids, cs) in index.items():
        if len(ids) * _PACKED_SHARE > len(paragraphs):
            fields = array(code, bytes(size))
            for i, c in zip(ids, cs):
                fields[i] = c
            packed[t] = int.from_bytes(fields, sys.byteorder)

    results = []
    for counts in quote_counts:
        q_norm = math.sqrt(sum(v * v for v in counts.values()))
        total = sum(q * packed[t] for t, q in counts.items() if t in packed)
        dot = array(code, total.to_bytes(size, sys.byteorder)).tolist()
        for t, q in counts.items():
            if t not in packed:
                for i, c in zip(*index[t]):
                    dot[i] += q * c
        # a paragraph sharing no token, a token-less one included, is at 1
        distance = [1.0 - d / (q_norm * n) if d else 1.0 for d, n in zip(dot, norms)]
        closest = min(distance)
        if closest > 0.0:
            results.append((distance.index(closest), closest))
        else:  # clamped: every paragraph at or below 0 ties at 0.0
            results.append((next(i for i, e in enumerate(distance) if e <= 0.0), 0.0))
    return results

"""Shared data model: probability/annotation matrices, ensembles, file I/O.

Matrices are stored as CSV with a label-name header row.  Values are
written with 17 significant digits so that a load -> save -> load cycle
is bit-identical, and read by numpy's C parser (``read_numbers`` gives
the number grammar); a file it rejects is walked again only to name the
first bad row and cell.  Text corpora are JSON-lines records with ``id``
and ``text`` fields.  Every output file is written through
``atomic_write``, so a failed write leaves no partial file behind.
"""

from __future__ import annotations

import csv
import io
import json
import os
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Sequence

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
DEFAULT_RESAMPLES = 10_000


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


def _check_labels(labels: Sequence[str], where: str = "") -> tuple[str, ...]:
    labels = tuple(str(name) for name in labels)
    for i, name in enumerate(labels):
        if not name:
            raise DuplicateLabelError(f"{where}empty label name at column {i + 1}")
    seen: dict[str, int] = {}
    for i, name in enumerate(labels):
        if name in seen:
            raise DuplicateLabelError(
                f"{where}duplicate label name {name!r} at columns {seen[name] + 1} and {i + 1}"
            )
        seen[name] = i
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
        labels = _check_labels(self.labels)
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise MatrixFormatError(f"expected a 2-D array, got shape {values.shape}")
        if values.shape[1] != len(labels):
            raise RaggedRowError(
                f"matrix has {values.shape[1]} columns but {len(labels)} labels"
            )
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

    def column(self, label: str) -> np.ndarray:
        return self.values[:, self.labels.index(label)]


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
        labels = _check_labels(self.labels)
        values = np.asarray(self.values)
        if values.ndim != 2:
            raise MatrixFormatError(f"expected a 2-D array, got shape {values.shape}")
        if values.shape[1] != len(labels):
            raise RaggedRowError(
                f"matrix has {values.shape[1]} columns but {len(labels)} labels"
            )
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
        return np.argmax(self.values, axis=1)

    @staticmethod
    def from_class_indices(
        classes: Sequence[int], labels: Sequence[str] | None = None
    ) -> "LabelMatrix":
        classes = np.asarray(classes, dtype=np.int64)
        k = int(classes.max()) + 1 if classes.size else 0
        if labels is None:
            labels = tuple(f"class_{j}" for j in range(k))
        values = np.zeros((classes.size, len(labels)), dtype=np.int8)
        values[np.arange(classes.size), classes] = 1
        return LabelMatrix(tuple(labels), values, kind="multiclass")


@dataclass(frozen=True)
class EnsembleSet:
    """Predictions of the per-fold models, all on the same items and labels."""

    members: tuple[ProbMatrix, ...]
    fold_ids: tuple[int, ...] = field(default=())

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
        fold_ids = tuple(self.fold_ids) or tuple(range(len(members)))
        if len(fold_ids) != len(members):
            raise LabelcalError(
                f"{len(fold_ids)} fold ids for {len(members)} ensemble members"
            )
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "fold_ids", fold_ids)


def ensemble_average(ensemble: EnsembleSet) -> ProbMatrix:
    """Entrywise arithmetic mean of the ensemble members."""
    stack = np.stack([m.values for m in ensemble.members])
    return ProbMatrix(ensemble.members[0].labels, stack.mean(axis=0))


def concat_labels(*matrices: ProbMatrix) -> ProbMatrix:
    """Column-concatenate predictions over the same items.

    Joins label sets (e.g. separate content and context ensembles) into
    one matrix; label names must stay unique across the inputs.
    """
    if not matrices:
        raise LabelcalError("concat_labels needs at least one matrix")
    rows = {m.n_items for m in matrices}
    if len(rows) != 1:
        raise MatrixFormatError(f"row counts differ: {sorted(rows)}")
    labels = tuple(name for m in matrices for name in m.labels)
    return ProbMatrix(labels, np.hstack([m.values for m in matrices]))


# ---------------------------------------------------------------------------
# File output
# ---------------------------------------------------------------------------


@contextmanager
def atomic_write(path: str, newline: str | None = None) -> Iterator[IO[str]]:
    """Open a UTF-8 text file that replaces ``path`` only once the block succeeds.

    Writes go to a fresh temporary file in the target's directory, which
    ``os.replace`` moves onto ``path`` when the block exits normally.  If
    the block raises, the temporary file is removed and ``path`` (absent
    or not) is left as it was.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except FileNotFoundError as exc:
        raise FileNotFoundError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:  # name the target, not the temporary file
            raise type(exc)(exc.errno, exc.strerror, path) from None
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Matrix file I/O
# ---------------------------------------------------------------------------


# Numbers are what numpy's C parser (``np.loadtxt``) reads, limited to
# printable ASCII: loadtxt would also strip \x1c-\x1f as whitespace.
_PRINTABLE = bytes(range(0x20, 0x7F))


def read_numbers(fields: Sequence[str], dtype: type = np.float64) -> np.ndarray | None:
    """``fields`` read as one ``dtype`` number each, or None if one is not a number.

    This is the number grammar of the numeric fields of every input file:
    printable ASCII that ``np.loadtxt`` reads as one value, such as
    ``" +1.5e3"`` or ``"nan"``, but not ``"1_0"`` or non-ASCII digits,
    which ``float()`` reads.  The error paths use it to find the bad cell.
    """
    if not all(field and field.isascii() and field.isprintable() for field in fields):
        return None
    try:
        values = np.loadtxt(fields, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    return values if values.shape == (len(fields),) else None


def _read_header(text: str, what: str) -> tuple[tuple[str, ...], int, int]:
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
        raise MatrixFormatError(f"{what}: malformed CSV on line {reader.line_num}: {exc}") from None
    if header is None:
        raise MatrixFormatError(f"{what}: missing header row")
    return _check_labels(header, f"{what}: "), end, reader.line_num


def _parse_rows(text: str, what: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Label header and float64 values of a matrix CSV text.

    The body after the header is read by ``np.loadtxt`` (quoted cells
    included, blank lines skipped) when it is printable ASCII.  A body it
    cannot read as one number per label in every row goes to
    ``_matrix_error``, which gives the error of the first bad row.
    """
    labels, start, header_lines = _read_header(text, what)
    raw = text[start:].encode()
    if raw.count(b"\n") + raw.count(b"\r") == len(raw):  # no data rows
        return labels, np.empty((0, len(labels)))
    data = None
    if not raw.translate(None, _PRINTABLE + b"\r\n"):
        try:
            data = np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None, quotechar='"',
                              ndmin=2, encoding="ascii")
        except ValueError:
            pass
    if data is None or data.shape[1] != len(labels):
        raise _matrix_error(text[start:], labels, what, header_lines)
    return labels, data


def _matrix_error(body: str, labels: tuple[str, ...], what: str, line: int) -> MatrixFormatError:
    """The error of a matrix body ``np.loadtxt`` rejected: its first row
    with the wrong number of cells or a cell that is not a number."""
    reader = csv.reader(io.StringIO(body))
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:
        return MatrixFormatError(f"{what}: malformed CSV on line {line + reader.line_num}: {exc}")
    for r, row in enumerate(rows, start=1):
        if len(row) != len(labels):
            return RaggedRowError(f"{what}: row {r} has {len(row)} fields, expected {len(labels)}")
        # inside quotes, numpy reads a line break as a space
        cells = [cell.replace("\r", " ").replace("\n", " ") for cell in row]
        if read_numbers(cells) is None:
            c = next(c for c, cell in enumerate(cells) if read_numbers([cell]) is None)
            return MalformedNumberError(
                f"{what}: malformed number {row[c]!r} at row {r}, column {labels[c]!r}"
            )
    return MatrixFormatError(f"{what}: numpy cannot read the matrix body")


def load_prob_matrix(path: str) -> ProbMatrix:
    """Read a probability matrix from a CSV file with a label header."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        labels, data = _parse_rows(fh.read(), str(path))
    try:
        return ProbMatrix(labels, data)
    except MatrixFormatError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_label_matrix(path: str, kind: str = "multilabel") -> LabelMatrix:
    """Read a binary annotation matrix from a CSV file with a label header."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        labels, data = _parse_rows(fh.read(), str(path))
    try:
        return LabelMatrix(labels, data, kind=kind)
    except MatrixFormatError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def format_matrix(labels: Sequence[str], values: np.ndarray) -> str:
    """Render a matrix as CSV text with 17-significant-digit values."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(labels)
    np.savetxt(out, np.asarray(values), fmt="%.17g", delimiter=",")
    return out.getvalue()


def save_prob_matrix(matrix: ProbMatrix | LabelMatrix, path: str) -> None:
    """Write a probability or annotation matrix as CSV (see ``format_matrix``)."""
    with atomic_write(path, newline="") as fh:
        fh.write(format_matrix(matrix.labels, matrix.values))


save_label_matrix = save_prob_matrix


# ---------------------------------------------------------------------------
# Text corpora
# ---------------------------------------------------------------------------


def load_texts(path: str) -> list[dict]:
    """Read a JSON-lines corpus; every record needs ``id`` and ``text``."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LabelcalError(f"{path}: invalid JSON on line {n}: {exc}") from None
            if not isinstance(record, dict) or "id" not in record or "text" not in record:
                raise LabelcalError(f"{path}: line {n} lacks 'id' or 'text' field")
            records.append(record)
    return records


def save_texts(records: Iterable[dict], path: str) -> None:
    with atomic_write(path) as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


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

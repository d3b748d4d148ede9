"""Stratified k-fold partitioning for imbalanced label sets.

Multilabel data cannot be stratified exactly, so ``stratified_kfold``
runs a random search: it draws many size-balanced partitions, scores
each by its per-(label, fold) proportion deviations sorted descending,
and keeps the lexicographically smallest score vector.  Single-label
data gets a classic exact per-class deal instead.

Candidate c is row c % _CHUNK of block c // _CHUNK, where one generator
derived from (seed, block) shuffles copies of the fold template _SLAB
rows at a time, in row order.  Each slab is scored as soon as it is
drawn and only the best candidate so far is kept, so the search holds
O(_SLAB * (N + k * L)) values however many candidates it draws.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._util import derive_rng
from .core import DEFAULT_CANDIDATES, LabelcalError, LabelMatrix, distinct, integer_ids

_CHUNK = 1024
_SLAB = 32  # rows shuffled at a time as int64, the item size numpy shuffles fastest


@dataclass(frozen=True)
class FoldAssignment:
    """A k-fold partition with its sorted deviation score vector."""

    fold_of: np.ndarray
    k: int
    score: np.ndarray

    def __post_init__(self) -> None:
        if self.k < 2:
            raise LabelcalError(f"k must be >= 2, got {self.k}")
        fold_of = integer_ids(self.fold_of, "fold id", "fold_of", self.k)
        score = np.asarray(self.score, dtype=np.float64)
        sizes = np.bincount(fold_of, minlength=self.k)
        if fold_of.size >= self.k and sizes.min() == 0:
            raise LabelcalError("empty fold")
        if sizes.max() - sizes.min() > 1:
            raise LabelcalError(f"fold sizes {sizes.tolist()} differ by more than 1")
        if np.any(np.diff(score) > 0):
            raise LabelcalError("score vector must be sorted descending")
        fold_of.setflags(write=False)
        score.setflags(write=False)
        object.__setattr__(self, "fold_of", fold_of)
        object.__setattr__(self, "score", score)


def _check_fold_count(n: int, k: int) -> None:
    if k < 2:
        raise LabelcalError(f"k must be >= 2, got {k}")
    if n < k:
        raise LabelcalError(f"cannot split {n} items into {k} folds")


def partition_score(labels: LabelMatrix, fold_of: np.ndarray, k: int) -> np.ndarray:
    """|fold label proportion - global label proportion| over all (label, fold).

    Returns all L*k values sorted descending.
    """
    fold_of = integer_ids(fold_of, "fold id", "fold_of", k)
    y = labels.values.astype(np.float64)
    if fold_of.size != y.shape[0]:
        raise LabelcalError(f"{fold_of.size} fold ids for {y.shape[0]} items")
    sizes = np.bincount(fold_of, minlength=k).astype(np.float64)
    if sizes.min() == 0:
        raise LabelcalError("empty fold")
    counts = np.zeros((k, y.shape[1]))
    np.add.at(counts, fold_of, y)
    return np.sort(_deviations(counts, sizes, y.mean(axis=0)).ravel())[::-1]


def _deviations(counts: np.ndarray, sizes: np.ndarray, global_prop: np.ndarray) -> np.ndarray:
    """|count / fold size - global proportion| of ``counts`` (..., fold, label)."""
    return np.abs(counts / sizes[:, None] - global_prop)


def _fold_template(n: int, k: int) -> np.ndarray:
    """Fold id per position for contiguous balanced folds, the first n % k one item longer."""
    return np.repeat(np.arange(k, dtype=np.int64), n // k + (np.arange(k) < n % k))


def _slabs(seed: int, block: int, rows: int, template: np.ndarray) -> Iterator[np.ndarray]:
    """A block's first ``rows`` candidates, ``_SLAB`` rows at a time, one partition per row."""
    rng = derive_rng(seed, block)
    for lo in range(0, rows, _SLAB):  # one generator runs through the slabs in row order
        slab = np.tile(template, (min(_SLAB, rows - lo), 1))
        yield rng.permuted(slab, axis=1, out=slab)


def candidate_partition(seed: int, candidate: int, n: int, k: int) -> np.ndarray:
    """The candidate'th seeded random balanced partition: a shuffled template."""
    block, row = divmod(candidate, _CHUNK)
    *_, slab = _slabs(seed, block, row + 1, _fold_template(n, k))
    return slab[-1]


def _min_peak_rows(
    members: list[np.ndarray], global_prop: np.ndarray, sizes: np.ndarray, slab: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, descending score vectors) of the slab rows whose peak deviation is the slab's least.

    ``members[j]`` lists the items that carry label j.  Only these rows
    can hold the slab's smallest score vector, so only they are sorted.
    """
    rows, k = slab.shape[0], sizes.size
    counts = np.empty((rows, k, global_prop.size), dtype=np.int64)
    offsets = np.arange(rows)[:, None] * k
    for label, items in enumerate(members):
        keys = slab.take(items, axis=1) + offsets
        counts[:, :, label] = np.bincount(keys.ravel(), minlength=rows * k).reshape(rows, k)
    diffs = _deviations(counts, sizes, global_prop).reshape(rows, -1)
    peak = diffs.max(axis=1)
    tied = np.flatnonzero(peak == peak.min())
    return tied, np.sort(diffs[tied], axis=1)[:, ::-1]


def stratified_kfold(
    labels: LabelMatrix,
    k: int,
    candidates: int = DEFAULT_CANDIDATES,
    seed: int = 0,
) -> FoldAssignment:
    """Best of ``candidates`` random balanced partitions.

    "Best" means the lexicographically smallest descending-sorted score
    vector; ties keep the earliest-generated candidate.  Deterministic
    given (labels, k, candidates, seed).  Candidates are drawn and scored
    ``_SLAB`` at a time and only the best so far is kept, which bounds
    memory at O(_SLAB * (N + k * L)) values, however many candidates.
    """
    n = labels.n_items
    _check_fold_count(n, k)
    if candidates < 1:
        raise LabelcalError(f"candidates must be >= 1, got {candidates}")
    members = [np.flatnonzero(column) for column in labels.values.T]
    global_prop = labels.values.astype(np.float64).mean(axis=0)
    template = _fold_template(n, k)
    sizes = np.bincount(template, minlength=k).astype(np.float64)
    best_score = None
    for block in range(-(-candidates // _CHUNK)):
        for slab in _slabs(seed, block, min(_CHUNK, candidates - block * _CHUNK), template):
            for row, score in zip(*_min_peak_rows(members, global_prop, sizes, slab)):
                score = score.tolist()  # lists compare lexicographically
                if best_score is None or score < best_score:  # a tie keeps the earlier
                    best_score, fold_of = score, slab[row].copy()
    return FoldAssignment(fold_of=fold_of, k=k, score=best_score)


def stratified_single_label(
    classes: np.ndarray, k: int, seed: int = 0
) -> FoldAssignment:
    """Exact stratification for single-label data.

    Items are shuffled within each class, classes are laid out in sorted
    order, and the concatenated sequence is dealt round-robin, so both
    overall and per-class fold counts differ by at most 1.
    """
    classes = integer_ids(classes, "class", "classes")
    n = classes.size
    _check_fold_count(n, k)
    rng = derive_rng(seed)
    order = []
    for c in distinct(classes):
        members = np.nonzero(classes == c)[0]
        rng.shuffle(members)
        order.append(members)
    order = np.concatenate(order)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[order] = np.arange(n) % k
    score = partition_score(LabelMatrix.from_class_indices(classes), fold_of, k)
    return FoldAssignment(fold_of=fold_of, k=k, score=score)

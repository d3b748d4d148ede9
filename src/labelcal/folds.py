"""Stratified k-fold partitioning for imbalanced label sets.

Multilabel data cannot be stratified exactly, so ``stratified_kfold``
runs a random search: it draws many size-balanced partitions, scores
each by its per-(label, fold) proportion deviations sorted descending,
and keeps the lexicographically smallest score vector.  Single-label
data gets a classic exact per-class deal instead.

Candidate c is row c % _CHUNK of block c // _CHUNK, where one generator
derived from (seed, block) shuffles a tile of the fold template row by
row; so the search result does not depend on how the candidates are
chunked or in what order the blocks are scored.  Scoring a block holds
O(_CHUNK * N) bytes of fold ids, one label's count keys and the counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import derive_rng
from .core import DEFAULT_CANDIDATES, LabelcalError, LabelMatrix, integer_ids

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
    """Fold id per position for contiguous balanced folds, in the smallest dtype for k - 1."""
    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[: n % k] += 1
    return np.repeat(np.arange(k, dtype=np.min_scalar_type(k - 1)), sizes)


def _block_rows(seed: int, block: int, rows: int, template: np.ndarray) -> np.ndarray:
    """The first ``rows`` candidates of a block, one partition per row."""
    rng = derive_rng(seed, block)
    out = np.empty((rows, template.size), dtype=template.dtype)
    for lo in range(0, rows, _SLAB):  # one generator runs through the slabs in row order
        slab = np.tile(template.astype(np.int64), (min(_SLAB, rows - lo), 1))
        out[lo:lo + _SLAB] = rng.permuted(slab, axis=1, out=slab)
    return out


def candidate_partition(seed: int, candidate: int, n: int, k: int) -> np.ndarray:
    """The candidate'th seeded random balanced partition: a shuffled template."""
    block, row = divmod(candidate, _CHUNK)
    return _block_rows(seed, block, row + 1, _fold_template(n, k))[row].astype(np.int64)


def _score_block(
    members: list[np.ndarray], global_prop: np.ndarray,
    seed: int, block: int, rows: int, n: int, k: int,
) -> tuple[tuple[float, ...], int, np.ndarray]:
    """Best (score tuple, candidate index, fold ids) among a block's first ``rows``.

    ``members[j]`` lists the items that carry label j.  Only rows whose
    largest deviation is the block minimum can win, so only they are sorted.
    """
    template = _fold_template(n, k)
    sizes = np.bincount(template, minlength=k).astype(np.float64)
    fold_of = _block_rows(seed, block, rows, template)
    counts = np.empty((rows, k, global_prop.size), dtype=np.int64)
    for label, items in enumerate(members):
        keys = np.take(fold_of, items, axis=1) + np.arange(rows)[:, None] * k
        counts[:, :, label] = np.bincount(keys.ravel(), minlength=rows * k).reshape(rows, k)
    diffs = _deviations(counts, sizes, global_prop).reshape(rows, -1)
    peak = diffs.max(axis=1)
    tied = np.flatnonzero(peak == peak.min())
    scores = np.sort(diffs[tied], axis=1)[:, ::-1]
    best = np.arange(tied.size)  # narrowed column by column to the lexicographic minima, in row order
    for column in scores.T:
        best = best[column[best] == column[best].min()]
    row = int(tied[best[0]])
    return tuple(scores[best[0]]), block * _CHUNK + row, fold_of[row].copy()


def stratified_kfold(
    labels: LabelMatrix,
    k: int,
    candidates: int = DEFAULT_CANDIDATES,
    seed: int = 0,
) -> FoldAssignment:
    """Best of ``candidates`` random balanced partitions.

    "Best" means the lexicographically smallest descending-sorted score
    vector; ties keep the earliest-generated candidate.  Deterministic
    given (labels, k, candidates, seed).  Candidates are scored
    ``_CHUNK`` at a time, which bounds memory at O(_CHUNK * N) bytes of
    fold ids, plus one label's count keys, plus the counts.
    """
    n = labels.n_items
    _check_fold_count(n, k)
    if candidates < 1:
        raise LabelcalError(f"candidates must be >= 1, got {candidates}")
    members = [np.flatnonzero(column) for column in labels.values.T]
    global_prop = labels.values.astype(np.float64).mean(axis=0)
    best_score, _, fold_of = min(
        (_score_block(members, global_prop, seed, b, min(_CHUNK, candidates - b * _CHUNK), n, k)
         for b in range(-(-candidates // _CHUNK))),
        key=lambda best: best[:2],
    )
    return FoldAssignment(fold_of=fold_of, k=k, score=np.array(best_score))


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
    for c in np.unique(classes):
        members = np.nonzero(classes == c)[0]
        rng.shuffle(members)
        order.append(members)
    order = np.concatenate(order)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[order] = np.arange(n) % k
    score = partition_score(LabelMatrix.from_class_indices(classes), fold_of, k)
    return FoldAssignment(fold_of=fold_of, k=k, score=score)

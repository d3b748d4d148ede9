"""Stratified k-fold partitioning for imbalanced label sets.

Multilabel data cannot be stratified exactly, so ``stratified_kfold``
runs a random search: it draws many size-balanced partitions, scores
each by its per-(label, fold) proportion deviations sorted descending,
and keeps the lexicographically smallest score vector.  Single-label
data gets a classic exact per-class deal instead.

Candidate c draws from a generator derived from (seed, c), so the search
result does not depend on how the candidates are chunked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import derive_rng
from .core import DEFAULT_CANDIDATES, LabelcalError, LabelMatrix

_CHUNK = 1024


@dataclass(frozen=True)
class FoldAssignment:
    """A k-fold partition with its sorted deviation score vector."""

    fold_of: np.ndarray
    k: int
    score: np.ndarray

    def __post_init__(self) -> None:
        fold_of = np.asarray(self.fold_of, dtype=np.int64)
        score = np.asarray(self.score, dtype=np.float64)
        if fold_of.ndim != 1:
            raise LabelcalError("fold_of must be a vector")
        if self.k < 2:
            raise LabelcalError(f"k must be >= 2, got {self.k}")
        sizes = np.bincount(fold_of, minlength=self.k)
        if fold_of.size and (fold_of.min() < 0 or fold_of.max() >= self.k):
            raise LabelcalError("fold id out of range")
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

    def members(self, fold: int) -> np.ndarray:
        return np.nonzero(self.fold_of == fold)[0]


def partition_score(labels: LabelMatrix, fold_of: np.ndarray, k: int) -> np.ndarray:
    """|fold label proportion - global label proportion| over all (label, fold).

    Returns all L*k values sorted descending.
    """
    fold_of = np.asarray(fold_of, dtype=np.int64)
    y = labels.values.astype(np.float64)
    if fold_of.size != y.shape[0]:
        raise LabelcalError(f"{fold_of.size} fold ids for {y.shape[0]} items")
    sizes = np.bincount(fold_of, minlength=k).astype(np.float64)
    if sizes.min() == 0:
        raise LabelcalError("empty fold")
    counts = np.zeros((k, y.shape[1]))
    np.add.at(counts, fold_of, y)
    diffs = np.abs(counts / sizes[:, None] - y.mean(axis=0))
    return np.sort(diffs.ravel())[::-1]


def _fold_template(n: int, k: int) -> np.ndarray:
    """Fold id per position for contiguous chunking into balanced folds."""
    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[: n % k] += 1
    return np.repeat(np.arange(k), sizes)


def candidate_partition(seed: int, candidate: int, n: int, k: int) -> np.ndarray:
    """The candidate'th seeded random balanced partition: shuffle then chunk."""
    perm = derive_rng(seed, candidate).permutation(n)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[perm] = _fold_template(n, k)
    return fold_of


def _score_chunk(
    items: np.ndarray, cols: np.ndarray, global_prop: np.ndarray,
    seed: int, chunk: range, n: int, k: int,
) -> tuple[tuple[float, ...], int]:
    """Best (score tuple, candidate index) within one candidate range.

    (items, cols) are the positive cells of the label matrix; one
    bincount over them gives every candidate's (fold, label) counts.
    """
    n_labels = global_prop.size
    template = _fold_template(n, k)
    sizes = np.bincount(template, minlength=k).astype(np.float64)
    fold_of = np.empty((len(chunk), n), dtype=np.int64)
    for row, c in enumerate(chunk):
        fold_of[row, derive_rng(seed, c).permutation(n)] = template
    rows = np.arange(len(chunk))[:, None]
    keys = (rows * k + fold_of[:, items]) * n_labels + cols
    counts = np.bincount(keys.ravel(), minlength=len(chunk) * k * n_labels)
    counts = counts.reshape(len(chunk), k, n_labels).astype(np.float64)
    diffs = np.abs(counts / sizes[None, :, None] - global_prop)
    scores = np.sort(diffs.reshape(len(chunk), -1), axis=1)[:, ::-1]
    # lexsort's primary key is its last one; it is stable, so ties keep
    # the earliest candidate
    best_row = np.lexsort(scores.T[::-1])[0]
    return tuple(scores[best_row]), chunk[best_row]


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
    ``_CHUNK`` at a time, which bounds memory at O(_CHUNK * (N + nnz)).
    """
    n = labels.n_items
    if n < k:
        raise LabelcalError(f"cannot split {n} items into {k} folds")
    if candidates < 1:
        raise LabelcalError(f"candidates must be >= 1, got {candidates}")
    items, cols = np.nonzero(labels.values)
    global_prop = labels.values.astype(np.float64).mean(axis=0)
    best_score, best_candidate = min(
        _score_chunk(
            items, cols, global_prop, seed,
            range(lo, min(lo + _CHUNK, candidates)), n, k,
        )
        for lo in range(0, candidates, _CHUNK)
    )
    fold_of = candidate_partition(seed, best_candidate, n, k)
    return FoldAssignment(fold_of=fold_of, k=k, score=np.array(best_score))


def stratified_single_label(
    classes: np.ndarray, k: int, seed: int = 0
) -> FoldAssignment:
    """Exact stratification for single-label data.

    Items are shuffled within each class, classes are laid out in sorted
    order, and the concatenated sequence is dealt round-robin, so both
    overall and per-class fold counts differ by at most 1.
    """
    classes = np.asarray(classes, dtype=np.int64)
    n = classes.size
    if n < k:
        raise LabelcalError(f"cannot split {n} items into {k} folds")
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

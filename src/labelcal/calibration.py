"""Probability truncation calibration.

Summing raw ensemble probabilities over-counts rare labels because many
small nonzero probabilities pile up.  Truncation zeroes probabilities
below ``p_low`` and saturates probabilities above ``p_high`` to 1; the
two thresholds are found by exhaustive grid search minimizing the
label-count error rate on out-of-fold predictions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from ._util import array_length
from .core import (
    DEFAULT_GRID_STEP,
    DEFAULT_HIGH_RANGE,
    DEFAULT_LOW_RANGE,
    LabelcalError,
    LabelMatrix,
    MatrixFormatError,
    ProbMatrix,
    integer_ids,
)
from .metrics import (
    check_pair,
    mean_count_error,
    relative_count_errors,
    tendency_error,
    tendency_series_from_matrix,
    true_label_counts,
)

N_BLOCKS = 4


@dataclass(frozen=True)
class Thresholds:
    """The truncation pair; probabilities strictly below ``p_low`` become 0,
    strictly above ``p_high`` become 1."""

    p_low: float
    p_high: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_low <= 1.0 or not 0.0 <= self.p_high <= 1.0:
            raise LabelcalError(f"thresholds must lie in [0, 1], got {self}")
        if self.p_low > self.p_high:
            raise LabelcalError(f"p_low must be <= p_high, got {self}")


def truncate_values(
    values: np.ndarray, p_low: float, p_high: float
) -> np.ndarray:
    """Truncation on a plain array; boundary values are left unchanged."""
    return np.where(values < p_low, 0.0, np.where(values > p_high, 1.0, values))


def truncate(probs: ProbMatrix, thresholds: Thresholds) -> ProbMatrix:
    """Zero out entries below p_low, saturate entries above p_high to 1."""
    return ProbMatrix(
        probs.labels, truncate_values(probs.values, thresholds.p_low, thresholds.p_high)
    )


def threshold_at_half(probs: ProbMatrix) -> ProbMatrix:
    """The usual binary-classification baseline: p <= 0.5 -> 0, p > 0.5 -> 1."""
    return ProbMatrix(probs.labels, np.where(probs.values > 0.5, 1.0, 0.0))


def out_of_fold(members: Sequence[ProbMatrix], fold_of: np.ndarray) -> ProbMatrix:
    """Row i of the result is the prediction of the fold model whose
    held-out evaluation fold contains item i: member ``fold_of[i]``.
    ``members`` are the fold models' predictions, all on the same items
    and labels; member f was trained without fold f."""
    members = tuple(members)
    if not members:
        raise LabelcalError("ensemble needs at least one member")
    first = members[0]
    for m, member in enumerate(members[1:], start=1):
        if member.values.shape != first.values.shape or member.labels != first.labels:
            raise MatrixFormatError(
                f"ensemble member {m} has shape {member.values.shape} / labels "
                f"{member.labels}, expected {first.values.shape} / {first.labels}"
            )
    fold_of = integer_ids(fold_of, "fold id", "fold_of", len(members))
    if fold_of.size != first.n_items:
        raise LabelcalError(f"{fold_of.size} fold ids for {first.n_items} prediction rows")
    values = np.empty_like(first.values)
    for fold, member in enumerate(members):
        rows = fold_of == fold
        values[rows] = member.values[rows]
    return ProbMatrix(first.labels, values)


def threshold_grid(
    low_range: tuple[float, float] = DEFAULT_LOW_RANGE,
    high_range: tuple[float, float] = DEFAULT_HIGH_RANGE,
    step: float = DEFAULT_GRID_STEP,
) -> tuple[np.ndarray, np.ndarray]:
    """Grid values low_start + i*step (resp. high); inclusive of endpoints."""
    if not step > 0:  # NaN fails too
        raise LabelcalError(f"grid step must be > 0, got {step}")
    if not np.isfinite(step):
        raise LabelcalError(f"grid step must be finite, got {step}")

    def axis(lo: float, hi: float) -> np.ndarray:
        if not 0.0 <= lo <= hi <= 1.0:
            raise LabelcalError(f"invalid threshold range ({lo}, {hi})")
        count = array_length(np.floor((hi - lo) / step + 1e-9) + 1, 8, f"grid step {step}")
        return lo + step * np.arange(count)

    return axis(*low_range), axis(*high_range)


def _mean_count_error(
    values: np.ndarray, true_counts: np.ndarray, p_low: float, p_high: float
) -> float:
    sums = truncate_values(values, p_low, p_high).sum(axis=0)
    return mean_count_error(relative_count_errors(sums, true_counts))


def grid_search_thresholds(
    oof_probs: ProbMatrix,
    truth: LabelMatrix,
    grid_step: float = DEFAULT_GRID_STEP,
    low_range: tuple[float, float] = DEFAULT_LOW_RANGE,
    high_range: tuple[float, float] = DEFAULT_HIGH_RANGE,
) -> tuple[Thresholds, float]:
    """Exhaustive grid search minimizing the label-count error rate.

    Ties are broken by the smallest p_low, then the smallest p_high.
    ``oof_probs`` should be out-of-fold predictions (see
    ``out_of_fold``), matching how the error is defined.  Pairs are
    screened with prefix sums of the sorted columns; those that screen
    near the minimum are scored again with the direct formula.
    """
    check_pair(oof_probs, truth)
    lows, highs = threshold_grid(low_range, high_range, grid_step)
    lo_idx, hi_idx = np.nonzero(lows[:, None] <= highs[None, :])  # row-major pairs
    if lo_idx.size == 0:
        raise LabelcalError("empty threshold grid")
    true_counts = true_label_counts(truth)
    values = oof_probs.values
    n, n_labels = values.shape

    # Entries below p_low add 0 and entries above p_high add 1, so with
    # a = #(v < p_low) and b = #(v <= p_high) a truncated column sums to
    # prefix[b] - prefix[a] + (n - b) over the sorted column.
    ordered = np.sort(values, axis=0)
    prefix = np.vstack([np.zeros(n_labels), np.cumsum(ordered, axis=0)])
    below = np.stack([np.searchsorted(c, lows, side="left") for c in ordered.T], axis=1)
    upto = np.stack([np.searchsorted(c, highs, side="right") for c in ordered.T], axis=1)
    cols = np.arange(n_labels)
    sums = (prefix[upto, cols] + (n - upto))[hi_idx] - prefix[below, cols][lo_idx]
    screened = np.nanmean(relative_count_errors(sums, true_counts), axis=1)

    # Rounding: a column sum of n values in [0, 1] is off by at most
    # n^2 * eps / 2, summed directly or as prefix[b] - prefix[a], so the
    # screened and direct sums differ by under 3 * n^2 * eps.  Relative
    # errors are at most n / (smallest positive true count), and forming
    # and averaging them adds under (2 + n_labels) * n * eps / that count
    # on either side.  ``bound`` covers both for every pair, so each pair
    # with the minimal direct error screens within 2 * bound of the
    # screened minimum and is scored again below.
    eps = np.finfo(np.float64).eps
    bound = 4.0 * n * (n + n_labels) * eps / true_counts[true_counts > 0].min()
    near = np.flatnonzero(screened <= screened.min() + 2.0 * bound)
    error, best = min(
        (_mean_count_error(values, true_counts, lows[lo_idx[p]], highs[hi_idx[p]]), p)
        for p in near
    )
    return Thresholds(float(lows[lo_idx[best]]), float(highs[hi_idx[best]])), float(error)


# ---------------------------------------------------------------------------
# Report tables: error rates by frequency-ranked label blocks
# ---------------------------------------------------------------------------


def frequency_blocks(truth: LabelMatrix) -> list[tuple[str, np.ndarray]]:
    """Label column indices grouped into ``N_BLOCKS`` blocks by decreasing
    frequency, then all of them.

    Returns (rank-range name, column indices) pairs, e.g. ("1-10", ...),
    with blocks as even as possible, and last ("1-L (cumulated)", all).
    """
    order = np.argsort(-truth.values.sum(axis=0), kind="stable")
    blocks, start = [], 1
    for part in np.array_split(order, min(N_BLOCKS, order.size)):
        blocks.append((f"{start}-{start + part.size - 1}", part))
        start += part.size
    return blocks + [(f"1-{truth.n_labels} (cumulated)", np.arange(truth.n_labels))]


def _treatments(probs: ProbMatrix, thresholds: Thresholds) -> list[tuple[str, ProbMatrix]]:
    return [
        ("no_truncation", probs),
        ("low_only", truncate(probs, Thresholds(thresholds.p_low, 1.0))),
        ("low_and_high", truncate(probs, thresholds)),
    ]


def _block_table(
    oof_probs: ProbMatrix, truth: LabelMatrix, thresholds: Thresholds,
    per_treatment: Callable[[ProbMatrix], object], cell: Callable[[object, np.ndarray], object],
) -> dict:
    """One row per frequency block, one column per treatment: ``cell`` of
    the treatment's ``per_treatment`` value and the block's columns."""
    values = {name: per_treatment(matrix) for name, matrix in _treatments(oof_probs, thresholds)}
    rows = [{"labels": block, **{name: cell(value, cols) for name, value in values.items()}}
            for block, cols in frequency_blocks(truth)]
    return {"thresholds": asdict(thresholds), "rows": rows}


def count_error_table(
    oof_probs: ProbMatrix, truth: LabelMatrix, thresholds: Thresholds
) -> dict:
    """Label-count error rates per frequency block and treatment.

    Rows are frequency-ranked label blocks plus a cumulated row; columns
    are no truncation / low threshold only / both thresholds.
    """
    true_counts = truth.values.sum(axis=0).astype(np.float64)

    def mean_error(per_label: np.ndarray, cols: np.ndarray) -> float | None:
        block = per_label[cols]
        return None if np.all(np.isnan(block)) else mean_count_error(block)

    return _block_table(
        oof_probs, truth, thresholds,
        lambda matrix: relative_count_errors(matrix.values.sum(axis=0), true_counts), mean_error,
    )


def tendency_error_table(
    oof_probs: ProbMatrix, truth: LabelMatrix, years: Sequence[int], thresholds: Thresholds
) -> dict:
    """Tendency error rates per frequency block and treatment (percent):
    a block's cell compares the tendency values of its label columns."""
    truth_values = tendency_series_from_matrix(truth, years)
    return _block_table(
        oof_probs, truth, thresholds,
        lambda matrix: tendency_series_from_matrix(matrix, years),
        lambda values, cols: tendency_error(values[:, cols], truth_values[:, cols]),
    )

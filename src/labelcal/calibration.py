"""Probability truncation calibration.

Summing raw ensemble probabilities over-counts rare labels because many
small nonzero probabilities pile up.  Truncation zeroes probabilities
below ``p_low`` and saturates probabilities above ``p_high`` to 1; the
two thresholds are found by exhaustive grid search minimizing the
label-count error rate on out-of-fold predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_GRID_STEP,
    DEFAULT_HIGH_RANGE,
    DEFAULT_LOW_RANGE,
    EnsembleSet,
    LabelcalError,
    LabelMatrix,
    ProbMatrix,
)
from .metrics import (
    DEFAULT_TICK_DIVISOR,
    UndefinedMetricError,
    relative_count_errors,
    tendency_error,
    tendency_series_from_matrix,
)


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


def out_of_fold(ensemble: EnsembleSet, fold_of: np.ndarray) -> ProbMatrix:
    """Row i of the result is the prediction of the fold model whose
    held-out evaluation fold contains item i."""
    fold_of = np.asarray(fold_of, dtype=np.int64)
    first = ensemble.members[0]
    if fold_of.size != first.n_items:
        raise LabelcalError(
            f"{fold_of.size} fold ids for {first.n_items} prediction rows"
        )
    by_fold = {fid: m for fid, m in zip(ensemble.fold_ids, ensemble.members)}
    missing = set(np.unique(fold_of)) - set(by_fold)
    if missing:
        raise LabelcalError(f"no ensemble member for folds {sorted(missing)}")
    values = np.empty_like(first.values)
    for fid, member in by_fold.items():
        rows = fold_of == fid
        values[rows] = member.values[rows]
    return ProbMatrix(first.labels, values)


def threshold_grid(
    low_range: tuple[float, float] = DEFAULT_LOW_RANGE,
    high_range: tuple[float, float] = DEFAULT_HIGH_RANGE,
    step: float = DEFAULT_GRID_STEP,
) -> tuple[np.ndarray, np.ndarray]:
    """Grid values low_start + i*step (resp. high); inclusive of endpoints."""
    if step <= 0:
        raise LabelcalError(f"grid step must be > 0, got {step}")

    def axis(lo: float, hi: float) -> np.ndarray:
        if not 0.0 <= lo <= hi <= 1.0:
            raise LabelcalError(f"invalid threshold range ({lo}, {hi})")
        count = int(np.floor((hi - lo) / step + 1e-9)) + 1
        return lo + step * np.arange(count)

    return axis(*low_range), axis(*high_range)


def _mean_count_error(
    values: np.ndarray, true_counts: np.ndarray, p_low: float, p_high: float
) -> float:
    sums = truncate_values(values, p_low, p_high).sum(axis=0)
    errors = relative_count_errors(sums, true_counts)
    return float(np.nanmean(errors))


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
    if oof_probs.values.shape != truth.values.shape:
        raise LabelcalError(
            f"probability matrix {oof_probs.values.shape} does not match "
            f"annotation matrix {truth.values.shape}"
        )
    lows, highs = threshold_grid(low_range, high_range, grid_step)
    lo_idx, hi_idx = np.nonzero(lows[:, None] <= highs[None, :])  # row-major pairs
    if lo_idx.size == 0:
        raise LabelcalError("empty threshold grid")
    true_counts = truth.values.sum(axis=0).astype(np.float64)
    if not (true_counts > 0).any():
        raise UndefinedMetricError("every label has zero true count")
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


def frequency_blocks(
    truth: LabelMatrix, n_blocks: int = 4
) -> list[tuple[str, np.ndarray]]:
    """Label column indices grouped into blocks by decreasing frequency.

    Returns (rank-range name, column indices) pairs, e.g. ("1-10", ...);
    blocks are as even as possible.  The table builders append the
    cumulated all-labels row themselves.
    """
    counts = truth.values.sum(axis=0)
    order = np.argsort(-counts, kind="stable")
    blocks = []
    start = 1
    for part in np.array_split(order, min(n_blocks, order.size)):
        if part.size == 0:
            continue
        blocks.append((f"{start}-{start + part.size - 1}", part))
        start += part.size
    return blocks


def _treatments(probs: ProbMatrix, thresholds: Thresholds) -> list[tuple[str, ProbMatrix]]:
    return [
        ("no_truncation", probs),
        ("low_only", truncate(probs, Thresholds(thresholds.p_low, 1.0))),
        ("low_and_high", truncate(probs, thresholds)),
    ]


def count_error_table(
    oof_probs: ProbMatrix, truth: LabelMatrix, thresholds: Thresholds
) -> dict:
    """Label-count error rates per frequency block and treatment.

    Rows are frequency-ranked label blocks plus a cumulated row; columns
    are no truncation / low threshold only / both thresholds.
    """
    true_counts = truth.values.sum(axis=0).astype(np.float64)
    errors = {
        treatment: relative_count_errors(matrix.values.sum(axis=0), true_counts)
        for treatment, matrix in _treatments(oof_probs, thresholds)
    }
    rows = frequency_blocks(truth) + [(f"1-{truth.n_labels} (cumulated)", np.arange(truth.n_labels))]
    table = {"thresholds": {"p_low": thresholds.p_low, "p_high": thresholds.p_high}, "rows": []}
    for name, cols in rows:
        row = {"labels": name}
        for treatment, per_label in errors.items():
            block = per_label[cols]
            row[treatment] = (
                float(np.nanmean(block)) if not np.all(np.isnan(block)) else None
            )
        table["rows"].append(row)
    return table


def tendency_error_table(
    oof_probs: ProbMatrix,
    truth: LabelMatrix,
    years: Sequence[int],
    thresholds: Thresholds,
    tick_divisor: float = DEFAULT_TICK_DIVISOR,
) -> dict:
    """Tendency error rates per frequency block and treatment (percent)."""
    truth_series = tendency_series_from_matrix(truth, years, tick_divisor)
    pred_series = {
        treatment: tendency_series_from_matrix(matrix, years, tick_divisor)
        for treatment, matrix in _treatments(oof_probs, thresholds)
    }
    rows = frequency_blocks(truth) + [(f"1-{truth.n_labels} (cumulated)", np.arange(truth.n_labels))]
    table = {"thresholds": {"p_low": thresholds.p_low, "p_high": thresholds.p_high}, "rows": []}
    for name, cols in rows:
        names = [truth.labels[j] for j in cols]
        row = {"labels": name}
        for treatment, series in pred_series.items():
            row[treatment] = tendency_error(
                {n: series[n] for n in names},
                {n: truth_series[n] for n in names},
            )
        table["rows"].append(row)
    return table

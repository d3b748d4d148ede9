"""Evaluation metrics: ROC AUC, balanced accuracy, calibration error,
label-count error rate, and discretized tendency values.

ROC AUC uses the Mann-Whitney form (ties count 1/2).  Per-label scores
that are undefined (a label with no positives or no negatives) raise
``UndefinedMetricError`` from the scalar function and are excluded and
reported by the macro average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import array_length, average_ranks
from .core import DEFAULT_ECE_BINS, LabelcalError, LabelMatrix, ProbMatrix, distinct, integer_ids

TICK_DIVISOR = 40.0


class UndefinedMetricError(LabelcalError):
    """The metric has no defined value on this input (e.g. one-class AUC)."""


def _check_vectors(name: str, a: np.ndarray, other: str, b: np.ndarray) -> None:
    if a.shape != b.shape or a.ndim != 1:
        raise LabelcalError(f"{name} {a.shape} and {other} {b.shape} must be equal-length vectors")


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability that a random positive outscores a random negative.

    Ties count 1/2 (Mann-Whitney statistic, computed from average ranks).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    _check_vectors("scores", scores, "labels", labels)
    positive = labels == 1
    n_pos = int(positive.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"ROC AUC undefined: {n_pos} positives, {n_neg} negatives"
        )
    ranks = average_ranks(scores)
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass(frozen=True)
class MacroScore:
    """An averaged metric with its per-label breakdown."""

    value: float
    per_label: dict[str, float]
    undefined: tuple[str, ...] = ()


def mean_roc_auc(scores: np.ndarray, labels: np.ndarray) -> tuple[float, list[float | None]]:
    """Mean ROC AUC over the columns where it is defined, and the AUC of
    each column (None where it is undefined)."""
    aucs: list[float | None] = []
    for j in range(scores.shape[1]):
        try:
            aucs.append(roc_auc(scores[:, j], labels[:, j]))
        except UndefinedMetricError:
            aucs.append(None)
    defined = [auc for auc in aucs if auc is not None]
    if not defined:
        raise UndefinedMetricError("ROC AUC undefined for every label")
    return float(np.mean(defined)), aucs


def macro_roc_auc(probs: ProbMatrix, labels: LabelMatrix) -> MacroScore:
    """Mean per-label ROC AUC over labels where it is defined."""
    check_pair(probs, labels)
    value, aucs = mean_roc_auc(probs.values, labels.values)
    per_label = {name: auc for name, auc in zip(probs.labels, aucs) if auc is not None}
    undefined = tuple(name for name, auc in zip(probs.labels, aucs) if auc is None)
    return MacroScore(value, per_label, undefined)


def balanced_accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Unweighted mean of per-class recall over classes present in truth."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    _check_vectors("pred", pred, "truth", truth)
    if truth.size == 0:
        raise LabelcalError("balanced_accuracy of empty input")
    recalls = [float(np.mean(pred[truth == c] == c)) for c in distinct(truth)]
    return float(np.mean(recalls))


def expected_calibration_error(
    probs: np.ndarray, labels: np.ndarray, bins: int = DEFAULT_ECE_BINS
) -> float:
    """Binned |accuracy - confidence| gap, weighted by bin occupancy.

    Equal-width bins on [0, 1]; the final bin is right-closed.  A value's
    bin is trunc(p * bins), capped at bins - 1, kept as a float so that no
    bin count overflows an integer cast.  Only the occupied bins are
    visited, in ascending order, each gathering its values in item order.
    """
    if bins < 1:
        raise LabelcalError(f"bins must be >= 1, got {bins}")
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    _check_vectors("probs", probs, "labels", labels)
    if probs.size == 0:
        return 0.0
    # the smallest float >= bins - 1, so the cap merges no bin below it
    top = float(bins - 1)
    if top < bins - 1:
        top = float(np.nextafter(top, np.inf))
    key = np.minimum(np.trunc(probs * bins), top)
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1]))).tolist()
    ece = 0.0
    for lo, hi in zip(starts, starts[1:] + [probs.size]):
        member = order[lo:hi]
        if key[member[0]] >= 0:  # a negative or NaN value is in no bin
            gap = abs(float(labels[member].mean()) - float(probs[member].mean()))
            ece += (hi - lo) / probs.size * gap
    return ece


def check_pair(probs: ProbMatrix, truth: LabelMatrix) -> None:
    """Raise unless predictions and annotations have one shape and one label list."""
    if probs.values.shape != truth.values.shape:
        raise LabelcalError(
            f"probability matrix {probs.values.shape} does not match "
            f"annotation matrix {truth.values.shape}"
        )
    if probs.labels != truth.labels:
        raise LabelcalError("probability and annotation label names differ")


def relative_count_errors(
    pred_sums: np.ndarray, true_counts: np.ndarray
) -> np.ndarray:
    """Per-label |predicted sum - true count| / true count; NaN at zero count.

    ``pred_sums`` may carry leading axes (one row per candidate); the
    true counts broadcast over them.
    """
    pred_sums, true_counts = np.broadcast_arrays(
        np.asarray(pred_sums, dtype=np.float64), np.asarray(true_counts, dtype=np.float64)
    )
    out = np.full(pred_sums.shape, np.nan)
    ok = true_counts > 0
    out[ok] = np.abs(pred_sums[ok] - true_counts[ok]) / true_counts[ok]
    return out


def mean_count_error(errors: np.ndarray) -> float:
    """Mean of the defined (non-NaN) ``relative_count_errors``: the label-count
    error rate.  ``np.nanmean`` sums zeros in place of NaN and can differ in the last bit."""
    return float(errors[~np.isnan(errors)].mean())


def true_label_counts(truth: LabelMatrix) -> np.ndarray:
    """The true count of each label as float64; an ``UndefinedMetricError``
    when every one is zero, so no label-count error is defined."""
    true_counts = truth.values.sum(axis=0).astype(np.float64)
    if not (true_counts > 0).any():
        raise UndefinedMetricError("every label has zero true count")
    return true_counts


@dataclass(frozen=True)
class LabelCountError:
    """Mean relative error between summed probabilities and true counts."""

    value: float
    per_label: dict[str, float]
    excluded: tuple[str, ...] = ()


def label_count_error_rate(probs: ProbMatrix, truth: LabelMatrix) -> LabelCountError:
    """Mean over labels of |sum_i p_il - sum_i y_il| / sum_i y_il.

    Labels with zero true count are excluded from the mean and reported.
    """
    check_pair(probs, truth)
    errors = relative_count_errors(probs.values.sum(axis=0), true_label_counts(truth))
    defined = ~np.isnan(errors)
    per_label = {
        name: float(errors[j]) for j, name in enumerate(probs.labels) if defined[j]
    }
    excluded = tuple(name for j, name in enumerate(probs.labels) if not defined[j])
    return LabelCountError(mean_count_error(errors), per_label, excluded)


def tendency_values(yearly_counts: np.ndarray, totals: np.ndarray | float) -> np.ndarray:
    """Tendency values in {-1, 0, +1} as int8, one row per consecutive year pair.

    ``yearly_counts`` holds one row per year and one column per label (or
    is one label's vector); ``totals`` holds each column's total count
    (predicted or true).  A column's tick is max(total / TICK_DIVISOR, 1);
    its value for the pair (y, y+1) is +1 when the count rose by at least
    a tick, -1 when it fell by at least a tick, 0 otherwise.
    """
    counts = np.asarray(yearly_counts, dtype=np.float64)
    if counts.shape[0] < 2:
        raise LabelcalError(f"need at least 2 years, got {counts.shape[0]}")
    ticks = np.maximum(np.asarray(totals, dtype=np.float64) / TICK_DIVISOR, 1.0)
    diffs = np.diff(counts, axis=0)
    return (diffs >= ticks).astype(np.int8) - (diffs <= -ticks)


def tendency_error(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean absolute tendency-value difference over all cells of two
    equal-shape arrays, as a percentage in [0, 200]."""
    pred, truth = np.asarray(pred, dtype=np.int64), np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.size == 0:
        raise LabelcalError(f"tendency values {pred.shape} and {truth.shape} cannot be compared")
    return float(np.abs(pred - truth).mean() * 100.0)


def tendency_series_from_matrix(
    matrix: ProbMatrix | LabelMatrix, years: Sequence[int]
) -> np.ndarray:
    """Tendency values (years - 1, labels) from per-item values and item years.

    Yearly counts are the per-year column sums (probabilities or
    annotations) over every year from the first to the last; the tick of
    each label uses that column's own total.
    A stable sort by year makes each year a contiguous slice in item
    order, so each sum adds what a per-year mask selects, in its order.
    """
    years = integer_ids(years, "year", "years")
    if years.size != matrix.values.shape[0]:
        raise LabelcalError(
            f"{years.size} years for {matrix.values.shape[0]} items"
        )
    span = range(int(years.min()), int(years.max()) + 1)
    array_length(span.stop - span.start + 1, 8, f"years {span.start} to {span.stop - 1}")
    order = np.argsort(years, kind="stable")
    bounds = np.searchsorted(years[order], np.arange(span.start, span.stop + 1))
    by_year = matrix.values[order].T.astype(np.float64, order="C")
    yearly = np.array([by_year[:, lo:hi].sum(axis=1) for lo, hi in zip(bounds[:-1], bounds[1:])])
    totals = matrix.values.T.astype(np.float64, order="C").sum(axis=1)
    return tendency_values(yearly, totals)

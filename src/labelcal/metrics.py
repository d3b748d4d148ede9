"""Evaluation metrics: ROC AUC, balanced accuracy, calibration error,
label-count error rate, and discretized tendency values.

ROC AUC uses the Mann-Whitney form (ties count 1/2).  Per-label scores
that are undefined (a label with no positives or no negatives) raise
``UndefinedMetricError`` from the scalar function and are excluded and
reported by the macro average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._util import average_ranks
from .core import DEFAULT_ECE_BINS, LabelcalError, LabelMatrix, ProbMatrix

DEFAULT_TICK_DIVISOR = 40.0


class UndefinedMetricError(LabelcalError):
    """The metric has no defined value on this input (e.g. one-class AUC)."""


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability that a random positive outscores a random negative.

    Ties count 1/2 (Mann-Whitney statistic, computed from average ranks).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise LabelcalError(
            f"scores {scores.shape} and labels {labels.shape} must be equal-length vectors"
        )
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


def macro_roc_auc(probs: ProbMatrix, labels: LabelMatrix) -> MacroScore:
    """Mean per-label ROC AUC over labels where it is defined."""
    _check_pair(probs, labels)
    per_label: dict[str, float] = {}
    undefined: list[str] = []
    for j, name in enumerate(probs.labels):
        try:
            per_label[name] = roc_auc(probs.values[:, j], labels.values[:, j])
        except UndefinedMetricError:
            undefined.append(name)
    if not per_label:
        raise UndefinedMetricError("ROC AUC undefined for every label")
    value = float(np.mean(list(per_label.values())))
    return MacroScore(value, per_label, tuple(undefined))


def balanced_accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Unweighted mean of per-class recall over classes present in truth."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise LabelcalError(
            f"pred {pred.shape} and truth {truth.shape} must be equal-length vectors"
        )
    if truth.size == 0:
        raise LabelcalError("balanced_accuracy of empty input")
    recalls = [float(np.mean(pred[truth == c] == c)) for c in np.unique(truth)]
    return float(np.mean(recalls))


def expected_calibration_error(
    probs: np.ndarray, labels: np.ndarray, bins: int = DEFAULT_ECE_BINS
) -> float:
    """Binned |accuracy - confidence| gap, weighted by bin occupancy.

    Equal-width bins on [0, 1]; the final bin is right-closed.  Empty
    bins contribute nothing.
    """
    if bins < 1:
        raise LabelcalError(f"bins must be >= 1, got {bins}")
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.shape != labels.shape or probs.ndim != 1:
        raise LabelcalError(
            f"probs {probs.shape} and labels {labels.shape} must be equal-length vectors"
        )
    if probs.size == 0:
        return 0.0
    idx = np.minimum((probs * bins).astype(np.int64), bins - 1)
    ece = 0.0
    for b in range(bins):
        member = idx == b
        n_b = int(member.sum())
        if n_b == 0:
            continue
        gap = abs(float(labels[member].mean()) - float(probs[member].mean()))
        ece += n_b / probs.size * gap
    return ece


def _check_pair(probs: ProbMatrix, truth: LabelMatrix) -> None:
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
    _check_pair(probs, truth)
    pred_sums = probs.values.sum(axis=0)
    true_counts = truth.values.sum(axis=0).astype(np.float64)
    errors = relative_count_errors(pred_sums, true_counts)
    defined = ~np.isnan(errors)
    if not defined.any():
        raise UndefinedMetricError("every label has zero true count")
    per_label = {
        name: float(errors[j]) for j, name in enumerate(probs.labels) if defined[j]
    }
    excluded = tuple(name for j, name in enumerate(probs.labels) if not defined[j])
    return LabelCountError(float(errors[defined].mean()), per_label, excluded)


@dataclass(frozen=True)
class TendencySeries:
    """Discretized year-over-year movement of one label's counts.

    The tick is max(total / tick_divisor, 1); the tendency value for the
    pair (y, y+1) is +1 when the count rose by at least a tick, -1 when
    it fell by at least a tick, 0 otherwise.
    """

    label: str
    years: tuple[int, ...]
    yearly_counts: tuple[float, ...]
    total: float
    tick: float
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.int8)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def tendency_values(
    yearly_counts: Mapping[int, float],
    total: float,
    label: str = "",
    tick_divisor: float = DEFAULT_TICK_DIVISOR,
) -> TendencySeries:
    """Tendency values in {-1, 0, +1} for consecutive year pairs.

    ``total`` is the label's total count (predicted or true); the tick is
    computed from this series' own total.
    """
    years = sorted(yearly_counts)
    if len(years) < 2:
        raise LabelcalError(f"need at least 2 years, got {len(years)}")
    if any(b - a != 1 for a, b in zip(years, years[1:])):
        raise LabelcalError(f"years must be consecutive, got {years}")
    counts = np.array([yearly_counts[y] for y in years], dtype=np.float64)
    tick = max(float(total) / tick_divisor, 1.0)
    diffs = np.diff(counts)
    values = np.zeros(diffs.size, dtype=np.int8)
    values[diffs >= tick] = 1
    values[diffs <= -tick] = -1
    return TendencySeries(
        label=label,
        years=tuple(years),
        yearly_counts=tuple(float(c) for c in counts),
        total=float(total),
        tick=tick,
        values=values,
    )


def tendency_error(
    pred: Mapping[str, TendencySeries], truth: Mapping[str, TendencySeries]
) -> float:
    """Mean absolute tendency-value difference, as a percentage in [0, 200].

    Averaged jointly over all (label, year-pair) cells.
    """
    if set(pred) != set(truth):
        raise LabelcalError(
            f"label sets differ: {sorted(set(pred) ^ set(truth))}"
        )
    if not pred:
        raise LabelcalError("tendency_error of empty label set")
    diffs = []
    for name in sorted(pred):
        p, t = pred[name], truth[name]
        if p.years != t.years:
            raise LabelcalError(f"year ranges differ for label {name!r}")
        diffs.append(np.abs(p.values.astype(np.int64) - t.values.astype(np.int64)))
    return float(np.concatenate(diffs).mean() * 100.0)


def tendency_series_from_matrix(
    matrix: ProbMatrix | LabelMatrix,
    years: Sequence[int],
    tick_divisor: float = DEFAULT_TICK_DIVISOR,
) -> dict[str, TendencySeries]:
    """Per-label tendency series from per-item values and item years.

    Yearly counts are the per-year column sums (probabilities or
    annotations); the tick of each label uses that column's own total.
    """
    years = np.asarray(years, dtype=np.int64)
    if years.size != matrix.values.shape[0]:
        raise LabelcalError(
            f"{years.size} years for {matrix.values.shape[0]} items"
        )
    span = range(int(years.min()), int(years.max()) + 1)
    out: dict[str, TendencySeries] = {}
    for j, name in enumerate(matrix.labels):
        column = matrix.values[:, j].astype(np.float64)
        per_year = {y: float(column[years == y].sum()) for y in span}
        out[name] = tendency_values(
            per_year, total=float(column.sum()), label=name, tick_divisor=tick_divisor
        )
    return out

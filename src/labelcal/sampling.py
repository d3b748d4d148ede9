"""Importance sampling for validation-set selection and bootstrap
sample-size planning.

The importance weights favor items whose prediction probabilities fall
into sparsely populated ranges: for each label the interval [0, max
probability] is split into five equal bins, and an item's weight is the
sum over labels of 1 / (population of its own bin).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import array_length, derive_rng
from .core import DEFAULT_REPS, DEFAULT_SIZE_GRID, LabelcalError, ProbMatrix

N_BINS = 5
DEFAULT_SIZES = tuple(range(DEFAULT_SIZE_GRID[0], DEFAULT_SIZE_GRID[1] + 1, DEFAULT_SIZE_GRID[2]))


def importance_weights(probs: ProbMatrix) -> np.ndarray:
    """w_i = sum over labels of 1 / (count of the item's own bin).

    A value's zero-based bin is the number of the label's inner edges
    ``i * max / N_BINS`` it reaches, so bins 1..4 are half-open [a, b) and
    bin 5 is closed at the maximum.  A label whose maximum is 0 puts every
    item in one bin.
    """
    if probs.n_items < 1:
        raise LabelcalError("importance_weights needs at least one item")
    values = probs.values
    edges = np.arange(1, N_BINS)[:, None] * values.max(axis=0) / N_BINS
    key = sum(values >= edge for edge in edges) + np.arange(0, N_BINS * probs.n_labels, N_BINS)
    with np.errstate(divide="ignore"):  # an empty bin is never looked up
        inverse = 1.0 / np.bincount(key.ravel())
    return inverse[key].sum(axis=1)


def weighted_sample(weights: np.ndarray, n: int, seed: int = 0) -> np.ndarray:
    """Weighted sampling without replacement via exponential-key order
    statistics (key = uniform**(1/w), computed in log space).

    Deterministic given the seed; returns indices sorted ascending.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1:
        raise LabelcalError("weights must be a vector")
    if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
        raise LabelcalError("weights must be positive and finite")
    if n > weights.size:
        raise LabelcalError(f"cannot draw {n} of {weights.size} items")
    if n < 0:
        raise LabelcalError(f"sample size must be >= 0, got {n}")
    if n == weights.size:
        return np.arange(weights.size)
    rng = derive_rng(seed)
    log_keys = np.log(rng.random(weights.size)) / weights
    chosen = np.argpartition(-log_keys, n)[:n]
    return np.sort(chosen)


@dataclass(frozen=True)
class SizingCurve:
    """Mean bootstrap standard error of the mean metric per sample size."""

    sizes: tuple[int, ...]
    mean_std: tuple[float, ...]
    reps: int

    def __post_init__(self) -> None:
        if any(s < 0 for s in self.mean_std):
            raise LabelcalError("standard deviations must be non-negative")


def sizing_curve(
    eval_scores: np.ndarray,
    sizes: Sequence[int] = DEFAULT_SIZES,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
) -> SizingCurve:
    """Confidence-interval width vs validation sample size.

    For each size, ``reps`` uniform random subsets of that size each give
    the ideal bootstrap SE of their mean, SD / sqrt(size) in closed form
    (Efron & Tibshirani 1993; ddof 0, taken about the first value so that
    equal values give exactly 0); the curve records their mean.  Each
    (size, rep) subset draws from its own derived seed, so every point of
    the curve is independent of the other sizes requested.
    """
    values = np.asarray(eval_scores, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        i = int(np.argmin(np.isfinite(values)))
        raise LabelcalError(f"score {i + 1} is not finite: {values[i]}")
    # the last of increasing sizes is the largest and the first the
    # smallest: all checked before a long range of sizes is built
    for last in sizes[-1:]:
        if last > values.size:
            raise LabelcalError(f"sample size {last} exceeds population {values.size}")
        if len(sizes) > 1 and sizes[0] >= last:
            raise LabelcalError("sizes must be strictly increasing")
        if sizes[0] < 1 or reps < 1:
            raise LabelcalError(f"sample sizes and reps must be >= 1, got {sizes[0]} and {reps}")
    sizes = tuple(int(s) for s in sizes)
    if not sizes:
        raise LabelcalError("no sample sizes given")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise LabelcalError("sizes must be strictly increasing")
    stds = np.empty((len(sizes), array_length(reps, 8 * len(sizes), f"reps {reps}")))
    for i, size in enumerate(sizes):
        for rep in range(reps):
            subset = values[derive_rng(seed, size, rep).choice(values.size, size, replace=False)]
            stds[i, rep] = (subset - subset[0]).std() / np.sqrt(size)
    return SizingCurve(sizes, tuple(float(m) for m in stds.mean(axis=1)), reps)

"""Importance sampling for validation-set selection and bootstrap
sample-size planning.

The importance weights favor items whose prediction probabilities fall
into sparsely populated ranges: for each label the interval [0, max
probability] is split into five equal bins, and an item's weight is the
sum over labels of 1 / (population of its own bin).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._util import derive_rng
from .core import DEFAULT_REPS, DEFAULT_RESAMPLES, LabelcalError, ProbMatrix

N_BINS = 5
DEFAULT_SIZES = tuple(range(50, 301, 10))
_BLOCK = 8192  # bootstrap indices per draw: 64 KiB of int64 that malloc reuses


@dataclass(frozen=True)
class BinStructure:
    """Per-label equal-width probability bins and their populations.

    Bins 1..4 are half-open [a, b); bin 5 is closed at the label's
    maximum probability.  A label whose maximum is 0 degenerates to a
    single bin holding every item.
    """

    max_prob: np.ndarray     # (L,)
    bin_index: np.ndarray    # (N, L), zero-based
    bin_counts: np.ndarray   # (L, N_BINS)


def bin_structure(probs: ProbMatrix) -> BinStructure:
    values = probs.values
    n, _ = values.shape
    max_prob = values.max(axis=0) if n else np.zeros(probs.n_labels)
    bin_index = np.zeros(values.shape, dtype=np.int64)
    bin_counts = np.zeros((probs.n_labels, N_BINS), dtype=np.int64)
    for j in range(probs.n_labels):
        p = max_prob[j]
        if p > 0:
            edges = np.array([i * p / N_BINS for i in range(1, N_BINS)])
            bin_index[:, j] = np.searchsorted(edges, values[:, j], side="right")
        # p == 0: everything stays in bin 0
        bin_counts[j] = np.bincount(bin_index[:, j], minlength=N_BINS)
    return BinStructure(max_prob, bin_index, bin_counts)


def importance_weights(probs: ProbMatrix) -> np.ndarray:
    """w_i = sum over labels of 1 / (count of the item's own bin)."""
    if probs.n_items < 1:
        raise LabelcalError("importance_weights needs at least one item")
    bins = bin_structure(probs)
    own = bins.bin_counts[np.arange(probs.n_labels)[None, :], bins.bin_index]
    return (1.0 / own).sum(axis=1)


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


def bootstrap_std(
    values: np.ndarray,
    resamples: int,
    seed: int | np.random.Generator = 0,
    statistic: Callable[[np.ndarray], float] | None = None,
) -> float:
    """Standard deviation of a metric across bootstrap replicates.

    Replicates resample the values with replacement at full size; the
    default metric is the mean.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise LabelcalError("bootstrap_std of empty input")
    if resamples < 1:
        raise LabelcalError(f"resamples must be >= 1, got {resamples}")
    rng = seed if isinstance(seed, np.random.Generator) else derive_rng(seed)
    rows = max(1, _BLOCK // values.size)
    replicates = np.empty(resamples)
    for lo in range(0, resamples, rows):
        idx = rng.integers(0, values.size, size=(min(rows, resamples - lo), values.size))
        replicates[lo:lo + len(idx)] = (
            values[idx].mean(axis=1) if statistic is None
            else [statistic(values[row]) for row in idx]
        )
    return float(replicates.std())


@dataclass(frozen=True)
class SizingCurve:
    """Mean bootstrap standard deviation of the metric per sample size."""

    sizes: tuple[int, ...]
    mean_std: tuple[float, ...]
    reps: int
    resamples: int

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise LabelcalError("sizes must be strictly increasing")
        if any(s < 0 for s in self.mean_std):
            raise LabelcalError("standard deviations must be non-negative")


def sizing_curve(
    eval_scores: np.ndarray,
    sizes: Sequence[int] = DEFAULT_SIZES,
    reps: int = DEFAULT_REPS,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> SizingCurve:
    """Confidence-interval width vs validation sample size, by simulation.

    For each size: ``reps`` times, draw a uniform random subset of that
    size and bootstrap the metric's standard deviation; record the mean.
    Each (size, rep) pair draws from its own derived seed, so every
    point of the curve is independent of the other sizes requested.
    """
    values = np.asarray(eval_scores, dtype=np.float64)
    sizes = tuple(int(s) for s in sizes)
    if not sizes:
        raise LabelcalError("no sample sizes given")
    if min(sizes) < 1 or reps < 1:
        raise LabelcalError(f"sample sizes and reps must be >= 1, got {min(sizes)} and {reps}")
    if max(sizes) > values.size:
        raise LabelcalError(f"sample size {max(sizes)} exceeds population {values.size}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise LabelcalError("sizes must be strictly increasing")
    stds = np.empty((len(sizes), reps))
    for i, size in enumerate(sizes):
        for rep in range(reps):
            rng = derive_rng(seed, size, rep)
            subset = rng.choice(values.size, size=size, replace=False)
            stds[i, rep] = bootstrap_std(values[subset], resamples, seed=rng)
    return SizingCurve(sizes, tuple(float(m) for m in stds.mean(axis=1)), reps, resamples)

"""Seed derivation, array-length checks and numpy ports of two scipy functions.

Randomized searches evaluate independent work items (a block of fold
candidates, a size-curve subset, a PBT generation), each drawing from
its own generator derived from (master seed, item key), so its result
does not depend on which other items are evaluated, or in what order.

A length computed from a parameter is checked by ``array_length`` before
numpy sizes an array by it: past numpy's own limit, where numpy raises a
bare ``ValueError``, it is a ``LabelcalError`` naming the parameter.

``average_ranks`` and ``logsumexp`` give bit-for-bit the results of
``scipy.stats.rankdata`` (method "average") and the real-input
``scipy.special.logsumexp`` of scipy 1.17, so that importing the package
does not import scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .core import LabelcalError


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream keyed by ``key`` under ``seed``; a negative
    seed, which no seed sequence takes, is a ``LabelcalError``."""
    if seed < 0:
        raise LabelcalError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence((int(seed), *(int(e) for e in key))))


def array_length(count: float, itemsize: int, what: str) -> int:
    """``count`` as an int if ``count`` items of ``itemsize`` bytes fit in
    the largest array numpy can size (``np.iinfo(np.intp).max`` bytes);
    past that, or not finite, it is a ``LabelcalError`` saying ``what``."""
    if not (count < math.inf and int(count) * itemsize <= np.iinfo(np.intp).max):
        raise LabelcalError(f"{what}: more than an array can hold")
    return int(count)


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a vector, ties given the mean of their ranks.

    A tie group at sorted positions start..end-1 has rank
    (start + end + 1) / 2, a half-integer, so every rank is exact.  Any
    NaN makes every rank NaN.
    """
    values = np.asarray(values).ravel()
    if np.isnan(values).any():
        return np.full(values.size, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, computed stably.

    Every entry equal to the maximum is taken out of the shifted sum and
    counted instead (``m`` ties), as scipy does:
    log1p(sum(exp(rest - max)) / m) + log(m) + max.  Where that is not
    finite (all entries -inf, an inf or a NaN) the direct
    log(sum(exp(a))) is returned.
    """
    a = np.asarray(a, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=-1, keepdims=True)
        is_max = a == a_max
        m = np.sum(is_max, axis=-1, keepdims=True, dtype=np.float64)
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=-1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.sum(np.exp(a), axis=-1, keepdims=True))
            out = np.where(finite, out, direct)
    return out[..., 0]

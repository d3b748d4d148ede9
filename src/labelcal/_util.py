"""Seed derivation and numpy ports of two scipy functions.

Randomized searches evaluate independent work items (fold candidates,
bootstrap repetitions, PBT generations).  Each item draws from its own
generator derived from (master seed, item key), so an item's result does
not depend on which other items are evaluated, or in what order.

``average_ranks`` and ``logsumexp`` give bit-for-bit the results of
``scipy.stats.rankdata`` (method "average") and the real-input
``scipy.special.logsumexp`` of scipy 1.17, so that importing the package
does not import scipy.
"""

from __future__ import annotations

import numpy as np


def derive_rng(*entropy: int) -> np.random.Generator:
    """Generator for the stream keyed by the given integer tuple."""
    return np.random.default_rng(np.random.SeedSequence(tuple(int(e) for e in entropy)))


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


def logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray | np.float64:
    """log(sum(exp(a))) over ``axis`` (all entries when None), computed stably.

    Every entry equal to the maximum is taken out of the shifted sum and
    counted instead (``m`` ties), as scipy does:
    log1p(sum(exp(rest - max)) / m) + log(m) + max.  Where that is not
    finite (all entries -inf, an inf or a NaN) the direct
    log(sum(exp(a))) is returned.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    axes = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axes, keepdims=True)
        is_max = a == a_max
        m = np.sum(is_max, axis=axes, keepdims=True, dtype=np.float64)
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=axes, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.sum(np.exp(a), axis=axes, keepdims=True))
            out = np.where(finite, out, direct)
    out = np.squeeze(out, axis=axes)
    return out[()] if out.ndim == 0 else out

"""Imbalance-robust loss functions with hand-derived analytic gradients.

All losses work on raw logits and return both the scalar value and its
gradient with respect to the logits.  Formulations are numerically
stable: log-probabilities go through ``np.logaddexp`` or the numpy
``logsumexp`` port, never through a raw ``exp`` of a large logit, and
probabilities are exponentials of those logs.  Entropy is in nats.

* ``focal_loss``            -- multilabel, independent sigmoid per label
* ``ldam_loss``             -- multiclass, label-distribution-aware margins
* ``confidence_penalty``    -- negative-entropy regularizer added to ldam_loss
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import logsumexp

DEFAULT_GAMMA = 2.0
DEFAULT_MAX_MARGIN = 0.5


@dataclass(frozen=True)
class LossValue:
    """A loss and its gradient with respect to the input logits."""

    value: float
    gradient: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "gradient", np.asarray(self.gradient, dtype=np.float64))


def focal_loss(
    logits: np.ndarray,
    targets: np.ndarray,
    gamma: float = DEFAULT_GAMMA,
    alpha: float | None = None,
) -> LossValue:
    """Multilabel focal loss, summed over labels.

    Per label, with p = sigmoid(logit) and p_t = p for a positive target
    and 1 - p for a negative one:

        term = -alpha_t * (1 - p_t)**gamma * log(p_t)

    where alpha_t = alpha for positives and 1 - alpha for negatives
    (1 on both sides when alpha is None).  With gamma = 0 and alpha
    absent this is exactly binary cross-entropy.

    Accepts arrays of any shape (logits and targets elementwise); the
    value sums over all entries, so a batch gives the batch total.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if alpha is not None and not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.shape != targets.shape:
        raise ValueError(f"logit shape {logits.shape} != target shape {targets.shape}")

    sign = 2.0 * targets - 1.0
    z_t = sign * logits
    log_pt = -np.logaddexp(0.0, -z_t)
    p_t = np.exp(log_pt)
    one_minus_pt = np.exp(-np.logaddexp(0.0, z_t))

    if alpha is None:
        alpha_t = 1.0
    else:
        alpha_t = np.where(targets == 1.0, alpha, 1.0 - alpha)

    focus = np.power(one_minus_pt, gamma)
    terms = -alpha_t * focus * log_pt
    # d term / d logit, via d p_t / d logit = sign * p_t * (1 - p_t);
    # p_t * log(p_t) -> 0 as p_t -> 0, where the product would be 0 * -inf
    focal_part = np.multiply(gamma * p_t * focus, log_pt, out=np.zeros_like(log_pt), where=p_t > 0)
    grad = sign * alpha_t * (focal_part - one_minus_pt * focus)
    return LossValue(float(terms.sum()), grad)


def ldam_margins(
    class_counts: np.ndarray, max_margin: float = DEFAULT_MAX_MARGIN
) -> np.ndarray:
    """Per-class margins proportional to n_j**(-1/4).

    Rescaled so the rarest class gets exactly ``max_margin``.
    """
    counts = np.asarray(class_counts, dtype=np.float64)
    if counts.size == 0:
        raise ValueError("class_counts is empty")
    if np.any(counts < 1):
        raise ValueError(f"all class counts must be >= 1, got {class_counts}")
    if max_margin <= 0:
        raise ValueError(f"max_margin must be > 0, got {max_margin}")
    margins = counts ** -0.25
    return margins * (max_margin / margins.max())


def ldam_loss(
    logits: np.ndarray,
    true_class: int | np.ndarray,
    margins: np.ndarray,
    scale: float = 1.0,
) -> LossValue:
    """Cross-entropy of softmax over margin-adjusted logits.

    The true-class logit is replaced by z_y - margin_y before the
    softmax; ``scale`` multiplies all adjusted logits.  Zero margins and
    scale 1 reduce exactly to standard softmax cross-entropy.

    Takes C logits with an int class, or (n, C) logits with an int array
    of n classes; a batch's value is the batch total.
    """
    logits = np.asarray(logits, dtype=np.float64)
    margins = np.asarray(margins, dtype=np.float64)
    true_class = np.asarray(true_class)
    if logits.ndim not in (1, 2) or true_class.shape != logits.shape[:-1]:
        raise ValueError(
            f"need C logits and one class, or (n, C) logits and n classes; "
            f"got {logits.shape} and {true_class.shape}"
        )
    if margins.shape != logits.shape[-1:]:
        raise ValueError(f"margin shape {margins.shape} != logit shape {logits.shape}")
    if not ((0 <= true_class) & (true_class < logits.shape[-1])).all():
        raise IndexError(f"true_class {true_class} out of range for {logits.shape[-1]} classes")

    at = (np.arange(len(logits)), true_class) if logits.ndim == 2 else true_class
    adjusted = logits.copy()
    adjusted[at] -= margins[true_class]
    z = scale * adjusted
    lse = logsumexp(z, axis=-1)
    value = float((lse - z[at]).sum())
    softmax = np.exp(z - lse[..., None])
    grad = scale * softmax
    grad[at] -= scale
    return LossValue(value, grad)


def confidence_penalty(logits: np.ndarray, beta: float) -> LossValue:
    """Penalty -beta * H(softmax(logits)) with H the Shannon entropy in nats.

    Most negative at the uniform distribution; added to ``ldam_loss`` it
    discourages overconfident outputs.  Takes C logits or (n, C) logits,
    one softmax per row; a batch's value is the batch total.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    logits = np.asarray(logits, dtype=np.float64)
    if beta == 0.0:
        return LossValue(0.0, np.zeros_like(logits))
    log_q = logits - logsumexp(logits, axis=-1)[..., None]
    q = np.exp(log_q)
    entropy = -(q * log_q).sum(axis=-1, keepdims=True)
    grad = beta * q * (log_q + entropy)
    return LossValue(float(-beta * entropy.sum()), grad)

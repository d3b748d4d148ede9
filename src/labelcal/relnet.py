"""Label relation networks: directed complete graphs whose edge a -> b
carries the estimated conditional probability P(b|a).

Estimation comes either from binary annotations (co-occurrence counts)
or from predicted probabilities under within-row independence; the two
coincide exactly on binary input.  Node positions minimise the
Kamada-Kawai stress, by stress majorization from a classical-MDS start,
and the graph exports to DOT with pinned positions and
probability-proportional edge widths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import LabelcalError, LabelMatrix, ProbMatrix

DISTANCE_EPSILON = 0.05
DEFAULT_WIDTH_BASE = 1.0
DEFAULT_WIDTH_SCALE = 4.0


class DisconnectedGraphError(LabelcalError):
    """The distance graph has unreachable node pairs."""


@dataclass(frozen=True)
class RelationNetwork:
    """L x L conditional probability estimates with per-label support.

    ``weights[a, b]`` estimates P(b|a).  Rows whose support is zero are
    undefined and stored as NaN, never as 0.
    """

    labels: tuple[str, ...]
    weights: np.ndarray
    support: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        weights = np.asarray(self.weights, dtype=np.float64)
        support = np.asarray(self.support, dtype=np.float64)
        n = len(labels)
        if weights.shape != (n, n) or support.shape != (n,):
            raise LabelcalError(
                f"need ({n}, {n}) weights and ({n},) support, got "
                f"{weights.shape} and {support.shape}"
            )
        defined = support > 0
        finite = weights[defined]
        if finite.size and (np.nanmin(finite) < 0 or np.nanmax(finite) > 1):
            raise LabelcalError("conditional probabilities must lie in [0, 1]")
        if defined.any() and not np.allclose(np.diag(weights)[defined], 1.0):
            raise LabelcalError("diagonal must be 1 for labels with support")
        weights = weights.copy()
        weights[~defined] = np.nan
        weights.setflags(write=False)
        support.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "support", support)

    @property
    def defined(self) -> np.ndarray:
        return self.support > 0


def _conditional(values: np.ndarray, labels: tuple[str, ...]) -> RelationNetwork:
    support = values.sum(axis=0)
    co = values.T @ values
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = co / support[:, None]
    defined = support > 0
    # P(a|a) = 1 by definition; the product estimate applies to distinct labels.
    weights[np.diag_indices_from(weights)] = np.where(defined, 1.0, np.nan)
    # guard against float drift just past the [0, 1] ends; NaN passes through
    weights = np.minimum(np.maximum(weights, 0.0), 1.0)
    return RelationNetwork(labels, weights, support.astype(np.float64))


def network_from_annotations(truth: LabelMatrix) -> RelationNetwork:
    """P(b|a) = count(rows with both) / count(rows with a)."""
    return _conditional(truth.values.astype(np.float64), truth.labels)


def network_from_probabilities(probs: ProbMatrix) -> RelationNetwork:
    """P(b|a) = sum_i p_ia p_ib / sum_i p_ia.

    Assumes within-row independence of label events; on binary input
    this reduces exactly to ``network_from_annotations``.
    """
    return _conditional(probs.values.astype(np.float64), probs.labels)


@dataclass(frozen=True)
class Layout:
    """Node positions in the plane plus the final stress."""

    positions: np.ndarray
    stress: float

    def __post_init__(self) -> None:
        positions = np.asarray(self.positions, dtype=np.float64)
        if not np.all(np.isfinite(positions)):
            raise LabelcalError("layout positions must be finite")
        if self.stress < 0:
            raise LabelcalError("stress must be non-negative")
        positions.setflags(write=False)
        object.__setattr__(self, "positions", positions)


def target_distances(
    net: RelationNetwork,
    epsilon: float = DISTANCE_EPSILON,
    min_weight: float = 0.0,
) -> np.ndarray:
    """Weight -> distance map plus all-pairs shortest paths.

    Symmetrized strength s = max(w_ab, w_ba); direct distance 1 - s +
    epsilon; pairs under ``min_weight`` get no direct edge.  Raises
    ``DisconnectedGraphError`` when some pair stays unreachable.
    """
    w = np.nan_to_num(net.weights, nan=0.0)
    strength = np.maximum(w, w.T)
    d = 1.0 - strength + epsilon
    if min_weight > 0.0:
        d[strength < min_weight] = np.inf
    np.fill_diagonal(d, 0.0)
    for k in range(len(d)):  # Floyd-Warshall; the diagonal stays 0
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    if np.isinf(d).any():
        a, b = np.argwhere(np.isinf(d))[0]
        raise DisconnectedGraphError(
            f"labels {net.labels[a]!r} and {net.labels[b]!r} are unreachable; "
            "lower min_weight or add epsilon edges"
        )
    return d


def layout_stress(positions: np.ndarray, dists: np.ndarray) -> float:
    """Kamada-Kawai stress: sum over pairs of k_ij (|x_i - x_j| - d_ij)^2
    with spring constants k_ij = 1 / d_ij^2 (0 where d_ij = 0).  Every
    pair is summed twice, as (i, j) and (j, i), and the total halved."""
    x, y = positions.T
    actual = np.hypot(x[:, None] - x, y[:, None] - y)
    springs = 1.0 / np.where(dists > 0.0, dists, np.inf) ** 2
    return float(0.5 * (springs * (actual - dists) ** 2).sum())


def kamada_kawai_layout(
    net: RelationNetwork,
    iterations: int = 1000,
    tolerance: float = 1e-6,
    epsilon: float = DISTANCE_EPSILON,
    min_weight: float = 0.0,
) -> Layout:
    """2-D layout of least Kamada-Kawai stress (``layout_stress``).

    The stress is minimised by stress majorization (SMACOF: de Leeuw,
    1977; Gansner, Koren & North, GD 2004) from a classical-MDS start.
    Each iteration moves every node at once, X <- V+ B(X) X, and never
    raises the stress.  The loop stops after ``iterations`` updates, or
    once an update lowers the stress by at most ``tolerance`` of it.
    """
    n = len(net.labels)
    if n < 2:
        raise LabelcalError(f"layout needs at least 2 labels, got {n}")
    dists = target_distances(net, epsilon=epsilon, min_weight=min_weight)
    springs = 1.0 / np.where(dists > 0.0, dists, np.inf) ** 2
    v_pinv = np.linalg.pinv(np.diag(springs.sum(axis=1)) - springs)

    # classical MDS: the top two eigenvectors of the double-centred -D^2 / 2
    centre = np.eye(n) - 1.0 / n
    eigenvalues, eigenvectors = np.linalg.eigh(-0.5 * centre @ dists**2 @ centre)
    top = [n - 1, n - 2]  # eigh sorts ascending
    pos = eigenvectors[:, top] * np.sqrt(np.maximum(eigenvalues[top], 0.0))

    stress = layout_stress(pos, dists)
    for _ in range(iterations):
        x, y = pos.T
        actual = np.hypot(x[:, None] - x, y[:, None] - y)
        # b_ij = -k_ij d_ij / |x_i - x_j|, and 0 where two nodes coincide
        b = -springs * dists / np.where(actual > 0.0, actual, np.inf)
        np.fill_diagonal(b, -b.sum(axis=1))
        new_pos = v_pinv @ (b @ pos)
        new_stress = layout_stress(new_pos, dists)
        converged = stress - new_stress <= tolerance * stress
        if new_stress <= stress:  # a rounding rise at the minimum is not taken
            pos, stress = new_pos, new_stress
        if converged:
            break
    return Layout(pos, stress)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _dot_quote(name: str) -> str:
    return '"%s"' % name.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(
    net: RelationNetwork,
    layout: Layout,
    min_weight: float = 0.0,
    width_base: float = DEFAULT_WIDTH_BASE,
    width_scale: float = DEFAULT_WIDTH_SCALE,
) -> str:
    """DOT text with pinned node positions and width-weighted edges.

    Edge width is width_base + width_scale * P(b|a); edges below
    ``min_weight``, self-loops, and undefined rows are omitted.  Output
    is deterministic for identical inputs.
    """
    if layout.positions.shape != (len(net.labels), 2):
        raise LabelcalError("layout does not match network labels")
    lines = ["digraph label_relations {", "  node [shape=ellipse];"]
    for name, (x, y) in zip(net.labels, layout.positions):
        lines.append(f'  {_dot_quote(name)} [pos="{x:.6g},{y:.6g}!"];')
    keep = net.weights >= min_weight  # False on undefined (NaN) rows
    np.fill_diagonal(keep, False)
    for a, b in zip(*np.nonzero(keep)):
        w = net.weights[a, b]
        width = width_base + width_scale * w
        lines.append(
            f"  {_dot_quote(net.labels[a])} -> {_dot_quote(net.labels[b])} "
            f'[penwidth={width:.6g}, label="{w:.3f}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_weights_json(net: RelationNetwork) -> str:
    """Weight matrix as JSON; undefined entries become null."""
    weights = [
        [None if np.isnan(w) else float(w) for w in row] for row in net.weights
    ]
    payload = {
        "labels": list(net.labels),
        "weights": weights,
        "support": [float(s) for s in net.support],
    }
    return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"

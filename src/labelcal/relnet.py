"""Label relation networks: directed complete graphs whose edge a -> b
carries the estimated conditional probability P(b|a).

Estimation comes either from binary annotations (co-occurrence counts)
or from predicted probabilities under within-row independence; the two
coincide exactly on binary input.  Node positions come from a
Kamada-Kawai stress minimization, and the graph exports to DOT with
pinned positions and probability-proportional edge widths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._util import derive_rng
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
    n = d.shape[0]
    for k in range(n):  # Floyd-Warshall
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    off_diag = ~np.eye(n, dtype=bool)
    if np.isinf(d[off_diag]).any():
        a, b = np.argwhere(np.isinf(d) & off_diag)[0]
        raise DisconnectedGraphError(
            f"labels {net.labels[a]!r} and {net.labels[b]!r} are unreachable; "
            "lower min_weight or add epsilon edges"
        )
    return d


def layout_stress(positions: np.ndarray, dists: np.ndarray) -> float:
    """Kamada-Kawai stress: sum over pairs of k_ij (|x_i - x_j| - d_ij)^2
    with spring constants k_ij = 1 / d_ij^2."""
    delta = positions[:, None, :] - positions[None, :, :]
    actual = np.sqrt((delta**2).sum(axis=2))
    i, j = np.triu_indices(len(positions), k=1)
    springs = 1.0 / dists[i, j] ** 2
    return float((springs * (actual[i, j] - dists[i, j]) ** 2).sum())


def _circular_init(n: int, radius: float, seed: int) -> np.ndarray:
    order = derive_rng(seed).permutation(n)
    angles = 2.0 * np.pi * np.argsort(order) / n
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _gradients(
    pos: np.ndarray, rows: np.ndarray, dists: np.ndarray, springs: np.ndarray
) -> np.ndarray:
    """Stress gradient of each node in ``rows``, one row of the result each."""
    r = np.arange(len(rows))
    delta = pos[rows, None] - pos[None]
    dist = np.sqrt((delta**2).sum(axis=2))
    dist[r, rows] = 1.0
    factor = springs[rows] * (1.0 - dists[rows] / np.maximum(dist, 1e-12))
    factor[r, rows] = 0.0
    return (factor[:, :, None] * delta).sum(axis=1)


def _node_stress(
    x: np.ndarray, m: int, pos: np.ndarray, dists: np.ndarray, springs: np.ndarray
) -> float:
    delta = x - pos
    dist = np.sqrt((delta**2).sum(axis=1))
    terms = springs[m] * (dist - dists[m]) ** 2
    return float(np.delete(terms, m).sum())


def _move_node(
    pos: np.ndarray,
    m: int,
    dists: np.ndarray,
    springs: np.ndarray,
    tolerance: float,
    max_inner: int = 50,
) -> None:
    """Newton steps on node m, backtracking so its local stress never rises."""
    for _ in range(max_inner):
        grad = _gradients(pos, np.array([m]), dists, springs)[0]
        if math.hypot(*grad) < tolerance:
            return
        delta = pos[m] - pos
        dist = np.sqrt((delta**2).sum(axis=1))
        dist[m] = 1.0
        dist = np.maximum(dist, 1e-12)
        dx, dy = delta[:, 0], delta[:, 1]
        k, l = springs[m].copy(), dists[m]
        k[m] = 0.0
        cube = dist**3
        exx = (k * (1.0 - l * dy**2 / cube)).sum()
        eyy = (k * (1.0 - l * dx**2 / cube)).sum()
        exy = (k * l * dx * dy / cube).sum()
        det = exx * eyy - exy**2
        if abs(det) > 1e-12:
            step = np.array(
                [(-grad[0] * eyy + grad[1] * exy) / det,
                 (grad[0] * exy - grad[1] * exx) / det]
            )
        else:
            step = -grad
        before = _node_stress(pos[m], m, pos, dists, springs)
        scale = 1.0
        for _ in range(30):
            candidate = pos[m] + scale * step
            if _node_stress(candidate, m, pos, dists, springs) < before:
                pos[m] = candidate
                break
            scale *= 0.5
        else:
            # Newton direction failed; a small enough gradient step must work
            scale = 1.0
            for _ in range(40):
                candidate = pos[m] - scale * grad
                if _node_stress(candidate, m, pos, dists, springs) < before:
                    pos[m] = candidate
                    break
                scale *= 0.5
            else:
                return


def kamada_kawai_layout(
    net: RelationNetwork,
    iterations: int = 1000,
    tolerance: float = 1e-6,
    seed: int = 0,
    epsilon: float = DISTANCE_EPSILON,
    min_weight: float = 0.0,
) -> Layout:
    """Stress-minimizing 2-D layout, classic Kamada-Kawai style.

    Starts from a seeded circular arrangement and repeatedly relaxes the
    node with the largest stress gradient; every accepted move lowers
    the stress, so the final stress never exceeds the initial one.
    """
    n = len(net.labels)
    if n < 2:
        raise LabelcalError(f"layout needs at least 2 labels, got {n}")
    dists = target_distances(net, epsilon=epsilon, min_weight=min_weight)
    with np.errstate(divide="ignore"):
        springs = 1.0 / dists**2
    np.fill_diagonal(springs, 0.0)

    pos = _circular_init(n, radius=float(dists.max()) / 2.0, seed=seed)
    nodes = np.arange(n)
    for _ in range(iterations):
        grads = _gradients(pos, nodes, dists, springs).tolist()
        norms = [math.hypot(gx, gy) for gx, gy in grads]
        worst = int(np.argmax(norms))
        if norms[worst] < tolerance:
            break
        before = pos[worst].copy()
        _move_node(pos, worst, dists, springs, tolerance)
        if np.array_equal(before, pos[worst]):
            break  # no accepted move possible; numerical floor reached
    return Layout(pos, layout_stress(pos, dists))


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
    for a, source in enumerate(net.labels):
        if not net.defined[a]:
            continue
        for b, target in enumerate(net.labels):
            if a == b:
                continue
            w = net.weights[a, b]
            if w < min_weight:
                continue
            width = width_base + width_scale * w
            lines.append(
                f"  {_dot_quote(source)} -> {_dot_quote(target)} "
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

"""Population-Based Training with elitism and roulette-wheel selection.

The population is a list of trainables, member ``i`` at index ``i``.
Every generation each member trains one epoch and is scored; the top
``ELITE_FRACTION`` is kept untouched, and every other member copies
parameters and hyperparameters from a fitness-proportionally selected
member of the whole population, then multiplies each hyperparameter by
an independent uniform draw from the perturbation interval.

A small linear-model trainable on synthetic imbalanced data is included
as a desk-scale stand-in for the expensive fine-tuning runs, driven by
the losses in :mod:`labelcal.losses`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Mapping, Protocol

import numpy as np

from ._util import array_length, derive_rng
from .core import LabelcalError, quantile
from .losses import confidence_penalty, focal_loss, ldam_loss, ldam_margins
from .metrics import balanced_accuracy, mean_roc_auc

PERTURBATION_INTERVAL = (0.8, 1.2)
ELITE_FRACTION = 0.10  # share of the population kept untouched each generation
EVAL_FRACTION = 0.25  # share of toy items held out for evaluation
POSITIVE_RATE = 0.5  # toy label j is positive on a POSITIVE_RATE / 2**j share of the items
STEPS_PER_EPOCH = 5  # full-batch gradient steps per toy epoch

# stream tags for derived generators
_INIT, _GENERATION = 0, 1


def warmup_steps(beta2: float) -> int:
    """ceil(2 / (1 - beta2)) optimizer warmup steps."""
    if not 0.0 < beta2 < 1.0:
        raise LabelcalError(f"beta2 must lie in (0, 1), got {beta2}")
    # small backoff so float noise cannot push e.g. 2/(1-0.9) past 20
    return max(1, math.ceil(2.0 / (1.0 - beta2) - 1e-9))


def roulette_select(scores: np.ndarray, rng: np.random.Generator) -> int:
    """Fitness-proportional index draw; fitness is the min-shifted score.

    A tiny floor (1e-9 of the score range) keeps the worst member
    selectable; equal scores degrade to a uniform draw.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise LabelcalError("roulette_select of empty score vector")
    if not np.all(np.isfinite(scores)):
        raise LabelcalError("scores must be finite")
    spread = float(scores.max() - scores.min())
    if spread == 0.0:
        return int(rng.integers(scores.size))
    fitness = scores - scores.min() + 1e-9 * spread
    return int(rng.choice(scores.size, p=fitness / fitness.sum()))


def perturb(
    hyperparameters: Mapping[str, float],
    rng: np.random.Generator,
    bounds: Mapping[str, tuple[float, float]] | None = None,
) -> dict[str, float]:
    """Each value times an independent uniform draw from
    ``PERTURBATION_INTERVAL``, clipped to its declared bounds."""
    out = {}
    for key in sorted(hyperparameters):
        value = hyperparameters[key] * rng.uniform(*PERTURBATION_INTERVAL)
        if bounds and key in bounds:
            lo, hi = bounds[key]
            value = min(max(value, lo), hi)
        out[key] = float(value)
    return out


class Trainable(Protocol):
    """What the scheduler needs from a training run.

    ``pbt_run`` holds one per population slot and keeps their scores
    itself.  ``hyperparameters`` is a mutable name -> positive value
    mapping; ``bounds`` (optional) declares clipping ranges for perturbation.
    """

    hyperparameters: dict[str, float]

    def init(self, seed: int) -> None: ...
    def train_one_epoch(self) -> None: ...
    def evaluate(self) -> float: ...
    def copy_from(self, other: "Trainable") -> None: ...


@dataclass(frozen=True)
class PbtConfig:
    population_size: int = 100
    min_generations: int = 30
    patience: int = 10
    seed: int = 0
    mode: str = "patience"  # "fixed": exactly min_generations, no patience

    def __post_init__(self) -> None:
        for name in ("population_size", "min_generations", "patience"):
            if getattr(self, name) < 1:
                raise LabelcalError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.mode not in ("fixed", "patience"):
            raise LabelcalError(f"unknown stopping mode {self.mode!r}")


@dataclass(frozen=True)
class PbtResult:
    best_score: float
    best_hyperparameters: dict[str, float]
    best_member: int
    best_generation: int
    generations: int
    history: list[dict]


def pbt_run(
    trainable_factory: Callable[[], Trainable], config: PbtConfig
) -> PbtResult:
    """Run the scheduler until the stopping rule fires.

    Stopping: mode "fixed" runs exactly ``min_generations``.  Mode
    "patience" runs ``min_generations`` and then continues until the
    best-so-far score has not improved for ``patience`` further
    generations.  Deterministic given ``config.seed``.
    """
    size = array_length(config.population_size, 8, f"population_size {config.population_size}")
    trainables = [trainable_factory() for _ in range(size)]
    for i, trainable in enumerate(trainables):
        trainable.init(int(derive_rng(config.seed, _INIT, i).integers(2**63)))

    n_elite = math.ceil(ELITE_FRACTION * config.population_size)
    best_score = -math.inf
    best_hypers: dict[str, float] = {}
    best_member = best_generation = -1
    stall = 0
    history: list[dict] = []
    generation = 0

    while True:
        generation += 1
        scores: list[float] = []
        for i, trainable in enumerate(trainables):
            try:
                trainable.train_one_epoch()
                scores.append(float(trainable.evaluate()))
            except Exception as exc:
                raise LabelcalError(
                    f"member {i} failed at generation {generation}: {exc}"
                ) from exc
            if not math.isfinite(scores[i]):
                raise LabelcalError(
                    f"member {i} returned non-finite score at generation {generation}"
                )

        ranked = sorted(range(config.population_size), key=lambda i: (-scores[i], i))
        elite = ranked[:n_elite]
        history.append({"generation": generation, "scores": scores, "elite": elite,
                        "hyperparameters": [dict(t.hyperparameters) for t in trainables]})

        improved = scores[ranked[0]] > best_score
        if improved:
            best_member = ranked[0]
            best_score = scores[best_member]
            best_hypers = dict(trainables[best_member].hyperparameters)
            best_generation = generation

        if config.mode == "fixed":
            if generation >= config.min_generations:
                break
        elif generation > config.min_generations:
            stall = 0 if improved else stall + 1
            if stall >= config.patience:
                break

        if config.population_size > n_elite:
            rng = derive_rng(config.seed, _GENERATION, generation)
            ranked_scores = np.array([scores[i] for i in ranked])
            targets = [i for i in range(config.population_size) if i not in elite]
            sources = [ranked[roulette_select(ranked_scores, rng)] for _ in targets]
            # snapshot sources before any overwrite so copies cannot alias
            snapshots: dict[int, Trainable] = {}
            for source in sources:
                if source not in snapshots:
                    snapshots[source] = trainable_factory()
                    snapshots[source].copy_from(trainables[source])
            for target, source in zip(targets, sources):
                trainable = trainables[target]
                trainable.copy_from(snapshots[source])
                trainable.hyperparameters = perturb(
                    trainable.hyperparameters, rng, getattr(trainable, "bounds", None)
                )

    return PbtResult(
        best_score=best_score,
        best_hyperparameters=best_hypers,
        best_member=best_member,
        best_generation=best_generation,
        generations=generation,
        history=history,
    )


# ---------------------------------------------------------------------------
# Toy trainable: linear classifier on synthetic imbalanced data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToyDataSpec:
    """Synthetic linearly-separable-with-noise dataset description.

    In multilabel mode label ``j`` marks the ``POSITIVE_RATE / 2 ** j``
    share of items with the largest linear score, before the noise flips;
    in multiclass mode class ``j`` is drawn with weight ``0.5 ** j``
    (normalised to sum to 1).  ``EVAL_FRACTION`` of the items, rounded
    and at least one, form the eval split.
    """

    n_items: int = 600
    n_labels: int = 6
    n_features: int = 10
    mode: str = "multilabel"  # or "multiclass"
    noise: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("multilabel", "multiclass"):
            raise LabelcalError(f"unknown toy mode {self.mode!r}")
        if self.n_items < 8 or self.n_labels < 2 or self.n_features < 1:
            raise LabelcalError(f"degenerate toy data spec {self}")
        if not 0.0 <= self.noise < 0.5:
            raise LabelcalError(f"noise must lie in [0, 0.5), got {self.noise}")
        sizes = {"n_items": self.n_items, "n_features": self.n_features, "n_labels": self.n_labels}
        for (a, m), (b, n) in combinations(sizes.items(), 2):  # each pair sizes a 2-d array
            array_length(int(m) * int(n), 8, f"{a} {m} x {b} {n}")


@functools.lru_cache(maxsize=8)
def make_toy_dataset(spec: ToyDataSpec) -> tuple[np.ndarray, ...]:
    """Train features, train targets (binary matrix or class vector), eval
    features and eval targets; built once per spec and shared read-only,
    since every PBT snapshot makes a trainable on the same data."""
    rng = derive_rng(spec.seed)
    x = rng.normal(size=(spec.n_items, spec.n_features))
    if spec.mode == "multilabel":
        rates = POSITIVE_RATE / 2.0 ** np.arange(spec.n_labels)
        w = rng.normal(size=(spec.n_features, spec.n_labels))
        raw = x @ w
        cuts = np.array([quantile(raw[:, j], 1.0 - rate) for j, rate in enumerate(rates)])
        y = (raw > cuts).astype(np.int8)
        flips = rng.random(y.shape) < spec.noise
        y = np.where(flips, 1 - y, y)
    else:
        weights = 0.5 ** np.arange(spec.n_labels)
        y = rng.choice(spec.n_labels, size=spec.n_items, p=weights / weights.sum())
        means = rng.normal(scale=3.0, size=(spec.n_labels, spec.n_features))
        x = means[y] + x  # unit noise around well-separated class means
        if spec.noise > 0:
            flips = rng.random(spec.n_items) < spec.noise
            y = np.where(flips, rng.integers(spec.n_labels, size=spec.n_items), y)
    n_eval = max(1, int(round(EVAL_FRACTION * spec.n_items)))
    split = derive_rng(spec.seed, 1).permutation(spec.n_items)
    train, held = split[n_eval:], split[:n_eval]
    arrays = (x[train], y[train], x[held], y[held])
    for array in arrays:
        array.flags.writeable = False
    return arrays


class LinearTrainable:
    """Full-batch gradient descent on a linear model.

    Multilabel mode trains on focal loss and evaluates macro ROC AUC;
    multiclass mode trains on LDAM loss plus the confidence penalty and
    evaluates balanced accuracy.
    """

    bounds = {
        "learning_rate": (1e-4, 10.0),
        "gamma": (1e-3, 10.0),
        "max_margin": (1e-3, 5.0),
        "beta": (1e-4, 10.0),
    }

    def __init__(self, data_spec: ToyDataSpec):
        self.spec = data_spec
        self.x, self.y, self.x_eval, self.y_eval = make_toy_dataset(data_spec)
        self.weights = np.zeros((data_spec.n_features, data_spec.n_labels))
        self.bias = np.zeros(data_spec.n_labels)
        self.hyperparameters: dict[str, float] = {}

    def init(self, seed: int) -> None:
        rng = derive_rng(seed)
        self.weights = 0.01 * rng.normal(size=self.weights.shape)
        self.bias = np.zeros(self.spec.n_labels)
        if self.spec.mode == "multilabel":
            self.hyperparameters = {
                "learning_rate": float(10.0 ** rng.uniform(-2.0, 0.0)),
                "gamma": float(10.0 ** rng.uniform(-1.0, 0.7)),
            }
        else:
            self.hyperparameters = {
                "learning_rate": float(10.0 ** rng.uniform(-2.0, 0.0)),
                "max_margin": float(10.0 ** rng.uniform(-1.5, 0.5)),
                "beta": float(10.0 ** rng.uniform(-3.0, 0.0)),
            }

    def train_one_epoch(self) -> None:
        lr = self.hyperparameters["learning_rate"]
        if self.spec.mode == "multiclass":  # max_margin changes only between epochs
            counts = np.bincount(self.y, minlength=self.spec.n_labels)
            margins = ldam_margins(np.maximum(counts, 1), self.hyperparameters["max_margin"])
        for _ in range(STEPS_PER_EPOCH):
            logits = self.x @ self.weights + self.bias
            if self.spec.mode == "multilabel":
                loss = focal_loss(logits, self.y, gamma=self.hyperparameters["gamma"])
                grad = loss.gradient / len(self.y)
            else:
                ldam = ldam_loss(logits, self.y, margins)
                penalty = confidence_penalty(logits, self.hyperparameters["beta"])
                grad = (ldam.gradient + penalty.gradient) / len(self.y)
            self.weights -= lr * (self.x.T @ grad)
            self.bias -= lr * grad.sum(axis=0)

    def evaluate(self) -> float:
        logits = self.x_eval @ self.weights + self.bias
        if self.spec.mode == "multilabel":
            # AUC depends only on ranks, and the sigmoid keeps the order
            return mean_roc_auc(logits, self.y_eval)[0]
        return balanced_accuracy(np.argmax(logits, axis=1), self.y_eval)

    def copy_from(self, other: "LinearTrainable") -> None:
        self.weights = other.weights.copy()
        self.bias = other.bias.copy()
        self.hyperparameters = dict(other.hyperparameters)


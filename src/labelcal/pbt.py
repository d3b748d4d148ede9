"""Population-Based Training with elitism and roulette-wheel selection.

Every generation each member trains one epoch and is scored; the top
elite fraction is kept untouched, and every other member copies
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
from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol, runtime_checkable

import numpy as np

from ._util import derive_rng
from .core import LabelcalError
from .losses import confidence_penalty, focal_loss, ldam_loss, ldam_margins
from .metrics import UndefinedMetricError, balanced_accuracy, roc_auc

PERTURBATION_INTERVAL = (0.8, 1.2)

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
    interval: tuple[float, float] = PERTURBATION_INTERVAL,
) -> dict[str, float]:
    """Each value times an independent uniform draw from ``interval``,
    clipped to its declared bounds."""
    out = {}
    for key in sorted(hyperparameters):
        value = hyperparameters[key] * rng.uniform(*interval)
        if bounds and key in bounds:
            lo, hi = bounds[key]
            value = min(max(value, lo), hi)
        out[key] = float(value)
    return out


@runtime_checkable
class Trainable(Protocol):
    """What the scheduler needs from a training run.

    ``hyperparameters`` is a mutable name -> positive value mapping;
    ``bounds`` (optional) declares clipping ranges for perturbation.
    """

    hyperparameters: dict[str, float]

    def init(self, seed: int) -> None: ...
    def train_one_epoch(self) -> None: ...
    def evaluate(self) -> float: ...
    def copy_from(self, other: "Trainable") -> None: ...


@dataclass
class Member:
    """One population slot: a trainable plus its score and history."""

    member_id: int
    trainable: Trainable
    score: float = math.nan
    history: list[tuple[dict[str, float], float]] = field(default_factory=list)

    @property
    def hyperparameters(self) -> dict[str, float]:
        return self.trainable.hyperparameters


@dataclass(frozen=True)
class PbtConfig:
    population_size: int = 100
    elite_fraction: float = 0.10
    min_generations: int = 30
    patience: int = 10
    perturbation: tuple[float, float] = PERTURBATION_INTERVAL
    seed: int = 0
    mode: str = "patience"  # "fixed": exactly min_generations, no patience

    def __post_init__(self) -> None:
        if self.population_size < 1:
            raise LabelcalError("population_size must be >= 1")
        if not 0.0 < self.elite_fraction < 1.0:
            raise LabelcalError("elite_fraction must lie in (0, 1)")
        if not self.perturbation[0] <= 1.0 <= self.perturbation[1]:
            raise LabelcalError("perturbation interval must contain 1")
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
    population = [Member(i, trainable_factory()) for i in range(config.population_size)]
    for member in population:
        seed = derive_rng(config.seed, _INIT, member.member_id).integers(2**63)
        member.trainable.init(int(seed))

    n_elite = math.ceil(config.elite_fraction * config.population_size)
    best_score = -math.inf
    best_hypers: dict[str, float] = {}
    best_member = best_generation = -1
    stall = 0
    history: list[dict] = []
    generation = 0

    while True:
        generation += 1
        for member in population:
            try:
                member.trainable.train_one_epoch()
                member.score = float(member.trainable.evaluate())
            except Exception as exc:
                raise LabelcalError(
                    f"member {member.member_id} failed at generation {generation}: {exc}"
                ) from exc
            if not math.isfinite(member.score):
                raise LabelcalError(
                    f"member {member.member_id} returned non-finite score "
                    f"at generation {generation}"
                )
            member.history.append((dict(member.hyperparameters), member.score))

        ranked = sorted(population, key=lambda m: (-m.score, m.member_id))
        elite = ranked[:n_elite]
        history.append(
            {
                "generation": generation,
                "scores": [m.score for m in population],
                "hyperparameters": [dict(m.hyperparameters) for m in population],
                "elite": [m.member_id for m in elite],
            }
        )

        improved = ranked[0].score > best_score
        if improved:
            best_score = ranked[0].score
            best_hypers = dict(ranked[0].hyperparameters)
            best_member = ranked[0].member_id
            best_generation = generation

        if config.mode == "fixed":
            if generation >= config.min_generations:
                break
        else:
            if generation > config.min_generations:
                stall = 0 if improved else stall + 1
                if stall >= config.patience:
                    break

        if config.population_size > n_elite:
            rng = derive_rng(config.seed, _GENERATION, generation)
            scores = np.array([m.score for m in ranked])
            elite_ids = {m.member_id for m in elite}
            targets = [m for m in population if m.member_id not in elite_ids]
            sources = [ranked[roulette_select(scores, rng)] for _ in targets]
            # snapshot sources before any overwrite so copies cannot alias
            snapshots: dict[int, Trainable] = {}
            for source in sources:
                if source.member_id not in snapshots:
                    snap = trainable_factory()
                    snap.copy_from(source.trainable)
                    snapshots[source.member_id] = snap
            for target, source in zip(targets, sources):
                target.trainable.copy_from(snapshots[source.member_id])
                target.trainable.hyperparameters = perturb(
                    target.trainable.hyperparameters,
                    rng,
                    bounds=getattr(target.trainable, "bounds", None),
                    interval=config.perturbation,
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
    """Synthetic linearly-separable-with-noise dataset description."""

    n_items: int = 600
    n_labels: int = 6
    n_features: int = 10
    mode: str = "multilabel"  # or "multiclass"
    positive_rates: tuple[float, ...] | None = None  # multilabel imbalance
    class_weights: tuple[float, ...] | None = None   # multiclass imbalance
    noise: float = 0.05
    eval_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("multilabel", "multiclass"):
            raise LabelcalError(f"unknown toy mode {self.mode!r}")
        if self.n_items < 8 or self.n_labels < 2 or self.n_features < 1:
            raise LabelcalError(f"degenerate toy data spec {self}")
        if not 0.0 <= self.noise < 0.5:
            raise LabelcalError(f"noise must lie in [0, 0.5), got {self.noise}")
        if not 0.0 < self.eval_fraction < 1.0:
            raise LabelcalError("eval_fraction must lie in (0, 1)")


@functools.lru_cache(maxsize=8)
def make_toy_dataset(spec: ToyDataSpec) -> tuple[np.ndarray, ...]:
    """Features, targets (binary matrix or class vector), eval rows and
    train rows; built once per spec and shared read-only, since every PBT
    snapshot makes a trainable on the same data."""
    rng = derive_rng(spec.seed)
    x = rng.normal(size=(spec.n_items, spec.n_features))
    if spec.mode == "multilabel":
        rates = spec.positive_rates or tuple(0.5 / 2.0**j for j in range(spec.n_labels))
        if len(rates) != spec.n_labels:
            raise LabelcalError(f"{len(rates)} rates for {spec.n_labels} labels")
        w = rng.normal(size=(spec.n_features, spec.n_labels))
        raw = x @ w
        diag = np.arange(spec.n_labels)
        cuts = np.quantile(raw, 1.0 - np.asarray(rates), axis=0)[diag, diag]
        y = (raw > cuts).astype(np.int8)
        flips = rng.random(y.shape) < spec.noise
        y = np.where(flips, 1 - y, y)
    else:
        weights = np.asarray(spec.class_weights or 0.5 ** np.arange(spec.n_labels), float)
        y = rng.choice(spec.n_labels, size=spec.n_items, p=weights / weights.sum())
        means = rng.normal(scale=3.0, size=(spec.n_labels, spec.n_features))
        x = means[y] + x  # unit noise around well-separated class means
        if spec.noise > 0:
            flips = rng.random(spec.n_items) < spec.noise
            y = np.where(flips, rng.integers(spec.n_labels, size=spec.n_items), y)
    n_eval = max(1, int(round(spec.eval_fraction * spec.n_items)))
    split = derive_rng(spec.seed, 1).permutation(spec.n_items)
    arrays = (x, y, split[:n_eval], split[n_eval:])
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

    def __init__(self, data_spec: ToyDataSpec, steps_per_epoch: int = 5):
        self.spec = data_spec
        self.steps_per_epoch = steps_per_epoch
        self.x, self.y, self.eval_idx, self.train_idx = make_toy_dataset(data_spec)
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

    def _logits(self, idx: np.ndarray) -> np.ndarray:
        return self.x[idx] @ self.weights + self.bias

    def train_one_epoch(self) -> None:
        idx = self.train_idx
        lr = self.hyperparameters["learning_rate"]
        for _ in range(self.steps_per_epoch):
            logits = self._logits(idx)
            if self.spec.mode == "multilabel":
                loss = focal_loss(
                    logits, self.y[idx], gamma=self.hyperparameters["gamma"]
                )
                grad = loss.gradient / idx.size
            else:
                counts = np.bincount(self.y[idx], minlength=self.spec.n_labels)
                margins = ldam_margins(
                    np.maximum(counts, 1),
                    max_margin=self.hyperparameters["max_margin"],
                )
                ldam = ldam_loss(logits, self.y[idx], margins)
                penalty = confidence_penalty(logits, self.hyperparameters["beta"])
                grad = (ldam.gradient + penalty.gradient) / idx.size
            self.weights -= lr * (self.x[idx].T @ grad)
            self.bias -= lr * grad.sum(axis=0)

    def evaluate(self) -> float:
        logits = self._logits(self.eval_idx)
        if self.spec.mode == "multilabel":
            # AUC depends only on ranks, and the sigmoid keeps the order
            truth = self.y[self.eval_idx]
            aucs = []
            for j in range(self.spec.n_labels):
                try:
                    aucs.append(roc_auc(logits[:, j], truth[:, j]))
                except UndefinedMetricError:
                    continue
            if not aucs:
                raise LabelcalError("macro ROC AUC undefined on the eval split")
            return float(np.mean(aucs))
        return balanced_accuracy(np.argmax(logits, axis=1), self.y[self.eval_idx])

    def copy_from(self, other: "LinearTrainable") -> None:
        self.weights = other.weights.copy()
        self.bias = other.bias.copy()
        self.hyperparameters = dict(other.hyperparameters)


def toy_trainable(spec: ToyDataSpec, steps_per_epoch: int = 5) -> LinearTrainable:
    """A fresh linear trainable on the synthetic dataset for ``spec``."""
    return LinearTrainable(spec, steps_per_epoch=steps_per_epoch)

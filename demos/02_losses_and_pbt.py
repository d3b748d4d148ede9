"""Imbalance-robust losses and the population-based hyperparameter search.

First the shapes of the three losses on single examples, then a full
PBT run on the built-in toy trainable: a linear model on synthetic
imbalanced multilabel data, trained with focal loss and scored by macro
ROC AUC.  The scheduler keeps the top 10% elite and refills the rest by
roulette-wheel selection plus multiplicative hyperparameter perturbation.
"""

import numpy as np

from labelcal import (
    LinearTrainable,
    PbtConfig,
    ToyDataSpec,
    confidence_penalty,
    focal_loss,
    ldam_loss,
    ldam_margins,
    pbt_run,
    warmup_steps,
)

print("warmup steps for beta2 = 0.999:", warmup_steps(0.999))

print("\nfocal loss on a hard positive (p = 0.12), by gamma:")
logit = np.array([-2.0])
for gamma in (0.0, 0.5, 2.0, 5.0):
    out = focal_loss(logit, np.array([1]), gamma=gamma)
    print(f"  gamma={gamma:<4} loss={out.value:.4f} dloss/dlogit={out.gradient[0]:+.4f}")

print("\nfocal loss on an easy positive (p = 0.95): the focusing term mutes it")
logit = np.array([3.0])
for gamma in (0.0, 2.0):
    print(f"  gamma={gamma:<4} loss={focal_loss(logit, np.array([1]), gamma=gamma).value:.5f}")

counts = np.array([900, 90, 10])
margins = ldam_margins(counts, max_margin=0.5)
print("\nLDAM margins for class counts", counts.tolist(), "->", np.round(margins, 3))
z = np.array([1.0, 1.0, 1.0])
for c in range(3):
    print(f"  uniform logits, true class {c}: loss {ldam_loss(z, c, margins).value:.4f}")

print("\nconfidence penalty (beta = 1):")
for name, z in [("uniform", np.zeros(3)), ("peaked", np.array([4.0, 0.0, 0.0]))]:
    print(f"  {name:<8} {confidence_penalty(z, beta=1.0).value:+.4f}")

# ---------------------------------------------------------------------------
print("\n" + "=" * 60)
print("PBT on the toy trainable (multilabel, rare labels)")
# label j is positive on about 0.5 / 2**j of the items: 50% down to 3%
spec = ToyDataSpec(
    n_items=500, n_labels=5, n_features=10, mode="multilabel", noise=0.05, seed=0,
)
config = PbtConfig(population_size=12, min_generations=18, seed=0, mode="fixed")
result = pbt_run(lambda: LinearTrainable(spec), config)

print(f"generations: {result.generations}")
best_so_far = -np.inf
for record in result.history:
    scores = record["scores"]
    best_so_far = max(best_so_far, max(scores))
    if record["generation"] % 3 == 1:
        print(f"  gen {record['generation']:>2}: best-so-far {best_so_far:.4f} "
              f"population median {np.median(scores):.4f}")
print(f"best macro ROC AUC: {result.best_score:.4f} "
      f"(member {result.best_member}, generation {result.best_generation})")
print("best hyperparameters:",
      {k: round(v, 4) for k, v in result.best_hyperparameters.items()})

"""Validation-set planning: how many samples, and which ones.

Two questions when manually validating predictions on an unannotated
corpus: how large must the sample be for a useful confidence interval,
and how should it be drawn so rare labels are represented?  The sizing
curve answers the first with the bootstrap standard error of the mean
(in closed form) over random subsets of each size; the importance
weights answer the second by favoring items whose prediction
probabilities fall in sparsely populated ranges.
"""

import numpy as np

from labelcal import ProbMatrix, importance_weights, weighted_sample
from labelcal.sampling import sizing_curve

rng = np.random.default_rng(0)

# --- sample size planning on simulated per-item metric contributions ------
scores = rng.normal(loc=0.85, scale=0.3, size=4000)
curve = sizing_curve(scores, sizes=range(50, 301, 50), reps=60, seed=1)
print("bootstrap std of the mean metric vs sample size:")
previous = None
for size, std in zip(curve.sizes, curve.mean_std):
    change = "" if previous is None else f"  ({std / previous - 1:+.1%})"
    print(f"  n={size:>3}: {std:.4f}{change}")
    previous = std
print("the 50 -> 100 step buys the big reduction; later steps flatten out\n")

# --- importance sampling on the predict set -------------------------------
N, L = 3000, 8
rates = np.geomspace(0.01, 0.3, L)
hidden = (rng.random((N, L)) < rates).astype(int)
probs = ProbMatrix(
    tuple(f"label_{j}" for j in range(L)),
    np.where(hidden == 1, rng.beta(5, 2, size=(N, L)), rng.beta(1, 12, size=(N, L))),
)
weights = importance_weights(probs)
print(f"importance weights: min {weights.min():.4f} max {weights.max():.4f} "
      f"(bounds are L/N = {L / N:.4f} and L = {L})")

sample = weighted_sample(weights, n=100, seed=2)
uniform = weighted_sample(np.ones(N), n=100, seed=2)
rarest = probs.values[:, 0] > 0.5
print(f"items with a confident rare-label prediction: {rarest.sum()} of {N}")
print(f"  in a uniform 100-sample:    {rarest[uniform].sum()}")
print(f"  in the importance sample:   {rarest[sample].sum()}")

# --- bootstrap on the validated subsample ----------------------------------
validated = rng.random(100) < 0.87  # pretend 87 of 100 checks passed
# the ideal bootstrap SE of a mean, in closed form: SD / sqrt(n)
std = validated.std() / np.sqrt(validated.size)
print(f"\nvalidated accuracy {validated.mean():.2f} "
      f"+- {1.96 * std:.3f} (95% bootstrap interval)")

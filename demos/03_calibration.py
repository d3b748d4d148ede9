"""Truncation calibration: predicting label counts by summing probabilities.

Summing raw prediction probabilities over-counts rare labels: thousands
of small nonzero probabilities add up.  Thresholding at 50% instead
under-counts them.  Truncating (zero below p_low, one above p_high, with
the pair grid-searched on out-of-fold predictions) fixes the aggregate
counts.  This script builds a synthetic annotated corpus, a 10-member
"ensemble" of noisy predictors, and compares the three treatments on
label counts and on year-over-year tendency values.
"""

import numpy as np

from labelcal import (
    LabelMatrix,
    ProbMatrix,
    grid_search_thresholds,
    label_count_error_rate,
    out_of_fold,
    stratified_kfold,
    threshold_at_half,
    truncate,
)
from labelcal.calibration import count_error_table, tendency_error_table

rng = np.random.default_rng(0)
N, L, K = 2000, 20, 10
names = tuple(f"label_{j:02d}" for j in range(L))

# annotations: label frequencies 1% .. 30%
rates = np.geomspace(0.01, 0.30, L)
y = (rng.random((N, L)) < rates).astype(int)
y[0] = 1
truth = LabelMatrix(names, y)
print(f"corpus: {N} items, {L} labels, frequencies "
      f"{rates[0]:.3f} .. {rates[-1]:.3f}")

# an approximately stratified 10-fold partition, as used for the ensemble
assignment = stratified_kfold(truth, k=K, candidates=2000, seed=1)

# per-fold "models": noisy probabilistic views of the truth
members = []
for fold in range(K):
    fold_rng = np.random.default_rng(100 + fold)
    probs = np.where(
        y == 1, fold_rng.beta(5, 2, size=(N, L)), fold_rng.beta(1, 14, size=(N, L))
    )
    members.append(ProbMatrix(names, probs))  # member f was trained without fold f

# out-of-fold matrix: row i comes from the model that never trained on i
oof = out_of_fold(members, assignment.fold_of)

thresholds, error = grid_search_thresholds(oof, truth, grid_step=0.01)
print(f"\ngrid-searched thresholds: p_low={thresholds.p_low:.2f} "
      f"p_high={thresholds.p_high:.2f}")

no_trunc = label_count_error_rate(oof, truth).value
half = label_count_error_rate(threshold_at_half(oof), truth).value
print(f"label-count error: no truncation {no_trunc:8.2%}")
print(f"label-count error: 50% threshold {half:8.2%}")
print(f"label-count error: truncation    {error:8.2%}")

print("\ncount errors by frequency-ranked label blocks:")
table = count_error_table(oof, truth, thresholds)
print(f"  {'labels':<18}{'no trunc':>10}{'low only':>10}{'low+high':>10}")
for row in table["rows"]:
    print(f"  {row['labels']:<18}{row['no_truncation']:>10.2%}"
          f"{row['low_only']:>10.2%}{row['low_and_high']:>10.2%}")

# tendency benchmark: items spread over 20 consecutive years
years = rng.integers(1980, 2000, size=N)
ttable = tendency_error_table(oof, truth, years, thresholds)
print("\ntendency errors by frequency-ranked label blocks (percent):")
print(f"  {'labels':<18}{'no trunc':>10}{'low only':>10}{'low+high':>10}")
for row in ttable["rows"]:
    print(f"  {row['labels']:<18}{row['no_truncation']:>10.2f}"
          f"{row['low_only']:>10.2f}{row['low_and_high']:>10.2f}")

print("\ntruncated probabilities keep mid-range values:",
      np.round(np.unique(truncate(oof, thresholds).values)[:4], 3), "...")

"""Truncation calibration and threshold grid search tests."""

import numpy as np
import pytest

from labelcal.core import EnsembleSet, LabelcalError, LabelMatrix, ProbMatrix
from labelcal.calibration import (
    Thresholds,
    count_error_table,
    grid_search_thresholds,
    out_of_fold,
    tendency_error_table,
    threshold_at_half,
    threshold_grid,
    truncate,
)
from labelcal.metrics import label_count_error_rate


def grid_search_oracle(values, truth_values, step, low_range, high_range):
    """Independent exhaustive search: plain loops, first strict minimum wins."""
    true_counts = truth_values.sum(axis=0).astype(float)
    defined = true_counts > 0

    def error(lo, hi):
        t = np.where(values < lo, 0.0, np.where(values > hi, 1.0, values))
        sums = t.sum(axis=0)
        rel = np.abs(sums[defined] - true_counts[defined]) / true_counts[defined]
        return float(rel.mean())

    n_low = int(np.floor((low_range[1] - low_range[0]) / step + 1e-9)) + 1
    n_high = int(np.floor((high_range[1] - high_range[0]) / step + 1e-9)) + 1
    best = None
    for i in range(n_low):
        lo = low_range[0] + i * step
        for j in range(n_high):
            hi = high_range[0] + j * step
            if lo > hi:
                continue
            e = error(lo, hi)
            if best is None or e < best[0]:
                best = (e, lo, hi)
    return best


def rare_label_instance(seed, n=400, l=8):
    """Rare labels with noisy, slightly overdispersed probabilities."""
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.01, 0.25, size=l)
    y = (rng.random((n, l)) < rates).astype(int)
    y[0] = 1  # every label has support
    probs = np.where(
        y == 1,
        rng.beta(6, 2, size=(n, l)),   # positives: high but imperfect
        rng.beta(1, 12, size=(n, l)),  # negatives: many small nonzeros
    )
    labels = tuple(f"l{j}" for j in range(l))
    return ProbMatrix(labels, probs), LabelMatrix(labels, y)


class TestThresholds:
    def test_ordering_enforced(self):
        with pytest.raises(LabelcalError):
            Thresholds(0.6, 0.4)

    def test_range_enforced(self):
        with pytest.raises(LabelcalError):
            Thresholds(-0.1, 0.5)


class TestTruncate:
    def test_zero_one_is_identity(self):
        probs = ProbMatrix(("a",), np.array([[0.0], [0.3], [1.0]]))
        out = truncate(probs, Thresholds(0.0, 1.0))
        np.testing.assert_array_equal(out.values, probs.values)

    def test_low_threshold_zeroes(self):
        probs = ProbMatrix(("a",), np.array([[0.1]]))
        assert truncate(probs, Thresholds(0.2, 0.54)).values[0, 0] == 0.0

    def test_high_threshold_saturates(self):
        probs = ProbMatrix(("a",), np.array([[0.6]]))
        assert truncate(probs, Thresholds(0.2, 0.54)).values[0, 0] == 1.0

    def test_boundaries_are_strict(self):
        probs = ProbMatrix(("a", "b"), np.array([[0.2, 0.54]]))
        out = truncate(probs, Thresholds(0.2, 0.54))
        np.testing.assert_array_equal(out.values, [[0.2, 0.54]])

    def test_idempotent(self):
        rng = np.random.default_rng(41)
        probs = ProbMatrix(("a", "b"), rng.random((50, 2)))
        t = Thresholds(0.2, 0.54)
        once = truncate(probs, t)
        twice = truncate(once, t)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_entrywise_monotone(self):
        rng = np.random.default_rng(42)
        p = np.sort(rng.random(200))
        t = Thresholds(0.3, 0.7)
        out = truncate(ProbMatrix(("a",), p[:, None]), t).values[:, 0]
        assert np.all(np.diff(out) >= 0)


class TestThresholdAtHalf:
    def test_exact_half_goes_to_zero(self):
        probs = ProbMatrix(("a",), np.array([[0.5]]))
        assert threshold_at_half(probs).values[0, 0] == 0.0

    def test_just_above_half_goes_to_one(self):
        probs = ProbMatrix(("a",), np.array([[0.51]]))
        assert threshold_at_half(probs).values[0, 0] == 1.0

    def test_endpoints_are_fixed(self):
        probs = ProbMatrix(("a", "b"), np.array([[0.0, 1.0]]))
        np.testing.assert_array_equal(threshold_at_half(probs).values, [[0.0, 1.0]])


class TestOutOfFold:
    def test_rows_come_from_the_holdout_member(self):
        labels = ("a",)
        members = tuple(
            ProbMatrix(labels, np.full((4, 1), 0.1 * (f + 1))) for f in range(2)
        )
        ens = EnsembleSet(members, fold_ids=(0, 1))
        oof = out_of_fold(ens, [0, 1, 1, 0])
        np.testing.assert_allclose(oof.values[:, 0], [0.1, 0.2, 0.2, 0.1])

    def test_missing_fold_model_rejected(self):
        members = (ProbMatrix(("a",), np.zeros((2, 1))),)
        with pytest.raises(LabelcalError, match="folds"):
            out_of_fold(EnsembleSet(members, fold_ids=(0,)), [0, 1])


class TestGridSearch:
    def test_binary_probs_equal_truth(self):
        y = np.array([[1, 0], [0, 1], [1, 1]])
        probs = ProbMatrix(("a", "b"), y.astype(float))
        truth = LabelMatrix(("a", "b"), y)
        t, err = grid_search_thresholds(probs, truth, grid_step=0.1)
        assert err == 0.0
        # every grid point scores 0; tie-break takes the smallest pair in range
        assert (t.p_low, t.p_high) == (0.0, 0.5)

    def test_three_item_instance_matches_oracle(self):
        probs = ProbMatrix(("a",), np.array([[0.1], [0.3], [0.9]]))
        truth = LabelMatrix(("a",), np.array([[0], [1], [1]]))
        t, err = grid_search_thresholds(probs, truth, grid_step=0.1)
        e, lo, hi = grid_search_oracle(
            probs.values, truth.values, 0.1, (0.0, 0.5), (0.5, 1.0)
        )
        assert (t.p_low, t.p_high) == (lo, hi)
        assert err == e

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(43)
        for seed in range(20):
            n = int(rng.integers(3, 21))
            l = int(rng.integers(1, 4))
            y = rng.integers(0, 2, size=(n, l))
            y[0] = 1
            values = rng.random((n, l))
            names = tuple(f"l{j}" for j in range(l))
            t, err = grid_search_thresholds(
                ProbMatrix(names, values), LabelMatrix(names, y), grid_step=0.1
            )
            e, lo, hi = grid_search_oracle(values, y, 0.1, (0.0, 0.5), (0.5, 1.0))
            assert (t.p_low, t.p_high) == (lo, hi)
            assert err == e

    def test_matches_oracle_on_grid_points_duplicates_and_ties(self):
        lows, highs = threshold_grid((0.0, 0.5), (0.5, 1.0), 0.05)
        points = np.concatenate([lows, highs])
        rng = np.random.default_rng(44)
        for seed in range(12):
            n = int(rng.integers(2, 40))
            y = rng.integers(0, 2, size=(n, 4))
            y[0] = 1
            values = rng.choice(points, size=(n, 4))  # every value is a threshold
            values[:, 1], y[:, 1] = values[:, 0], y[:, 0]  # duplicated column
            if seed % 3 == 0:
                values[:, 2] = y[:, 2]  # a 0/1 column: every pair ties on it
            names = tuple(f"l{j}" for j in range(4))
            t, err = grid_search_thresholds(
                ProbMatrix(names, values), LabelMatrix(names, y), grid_step=0.05
            )
            e, lo, hi = grid_search_oracle(values, y, 0.05, (0.0, 0.5), (0.5, 1.0))
            assert (t.p_low, t.p_high) == (lo, hi)
            assert err == e

    def test_minimizer_beats_no_truncation_and_half(self):
        probs, truth = rare_label_instance(6)
        t, err = grid_search_thresholds(probs, truth, grid_step=0.02)
        no_trunc = label_count_error_rate(probs, truth).value
        half = label_count_error_rate(threshold_at_half(probs), truth).value
        assert err <= no_trunc
        assert err <= half

    def test_optimized_truncation_beats_half_on_rare_labels(self):
        wins = 0
        for seed in range(20):
            probs, truth = rare_label_instance(100 + seed)
            _, err = grid_search_thresholds(probs, truth, grid_step=0.02)
            half = label_count_error_rate(threshold_at_half(probs), truth).value
            if err < half:
                wins += 1
        assert wins >= 19

    def test_empty_grid_rejected(self):
        probs = ProbMatrix(("a",), np.array([[0.5]]))
        truth = LabelMatrix(("a",), np.array([[1]]))
        with pytest.raises(LabelcalError, match="range"):
            grid_search_thresholds(probs, truth, low_range=(0.9, 0.2))

    def test_grid_includes_endpoints(self):
        lows, highs = threshold_grid((0.0, 0.5), (0.5, 1.0), 0.01)
        assert lows[0] == 0.0 and len(lows) == 51
        assert highs[-1] == 1.0 and len(highs) == 51


class TestReportTables:
    def test_count_table_shape_and_identity(self):
        y = np.array([[1, 0, 1], [1, 1, 0], [1, 0, 0], [0, 1, 1]])
        truth = LabelMatrix(("a", "b", "c"), y)
        probs = ProbMatrix(("a", "b", "c"), y.astype(float))
        table = count_error_table(probs, truth, Thresholds(0.2, 0.54))
        assert table["rows"][-1]["labels"] == "1-3 (cumulated)"
        for row in table["rows"]:
            assert set(row) == {"labels", "no_truncation", "low_only", "low_and_high"}
            assert row["low_and_high"] == 0.0

    def test_tendency_table_identity_is_zero(self):
        rng = np.random.default_rng(44)
        y = rng.integers(0, 2, size=(40, 2))
        y[:4] = 1
        truth = LabelMatrix(("a", "b"), y)
        probs = ProbMatrix(("a", "b"), y.astype(float))
        years = [1980 + i % 4 for i in range(40)]
        table = tendency_error_table(probs, truth, years, Thresholds(0.2, 0.54))
        assert all(row["low_and_high"] == 0.0 for row in table["rows"])

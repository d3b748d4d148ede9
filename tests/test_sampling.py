"""Importance weights, weighted sampling, and bootstrap sizing tests."""

import numpy as np
import pytest
from scipy.stats import chi2, spearmanr

from labelcal._util import derive_rng
from labelcal.core import LabelcalError, ProbMatrix, concat_labels
from labelcal.sampling import (
    SizingCurve,
    bin_structure,
    bootstrap_std,
    importance_weights,
    sizing_curve,
    weighted_sample,
)


def weights_by_hand(values):
    """Loop transcription of the binning formula: five equal bins over
    [0, column max] (last closed), weight = sum of 1/own-bin-count."""
    n, l = values.shape
    weights = np.zeros(n)
    for j in range(l):
        col = values[:, j]
        p = col.max()
        if p == 0:
            weights += 1.0 / n
            continue
        def bin_of(x):
            for b in range(5):
                lo = b * p / 5
                hi = p if b == 4 else (b + 1) * p / 5  # last bin closed at the max
                if (x >= lo and x < hi) if b < 4 else (x >= lo and x <= hi):
                    return b
            raise AssertionError(f"{x} not binned for max {p}")
        bins = [bin_of(x) for x in col]
        counts = [bins.count(b) for b in range(5)]
        for i in range(n):
            weights[i] += 1.0 / counts[bins[i]]
    return weights


class TestImportanceWeights:
    def test_uniform_positive_column(self):
        probs = ProbMatrix(("a",), np.full((8, 1), 0.4))
        np.testing.assert_allclose(importance_weights(probs), np.full(8, 1 / 8))

    def test_all_zero_column_degenerates_to_single_bin(self):
        probs = ProbMatrix(("a",), np.zeros((5, 1)))
        np.testing.assert_allclose(importance_weights(probs), np.full(5, 1 / 5))

    def test_manual_binning_example(self):
        # max 0.9 -> width 0.18; 0.1 in bin 1 (count 2), 0.9 in bin 5 (count 1)
        probs = ProbMatrix(("a",), np.array([[0.9], [0.1], [0.1]]))
        np.testing.assert_allclose(importance_weights(probs), [1.0, 0.5, 0.5])

    def test_identical_columns_double_the_weight(self):
        rng = np.random.default_rng(51)
        col = rng.random((20, 1))
        one = importance_weights(ProbMatrix(("a",), col))
        two = importance_weights(ProbMatrix(("a", "b"), np.hstack([col, col])))
        np.testing.assert_allclose(two, 2 * one)

    def test_matches_transcription_on_random_matrices(self):
        rng = np.random.default_rng(52)
        for _ in range(25):
            n, l = int(rng.integers(2, 50)), int(rng.integers(1, 6))
            values = rng.random((n, l))
            if rng.random() < 0.3:
                values[:, 0] = 0.0
            probs = ProbMatrix(tuple(f"l{j}" for j in range(l)), values)
            np.testing.assert_allclose(
                importance_weights(probs), weights_by_hand(values), rtol=0, atol=1e-12
            )

    def test_weight_bounds(self):
        rng = np.random.default_rng(53)
        values = rng.random((30, 4))
        w = importance_weights(ProbMatrix(tuple("abcd"), values))
        assert np.all(w >= 4 / 30 - 1e-12)
        assert np.all(w <= 4 + 1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(54)
        values = rng.random((25, 3))
        perm = rng.permutation(25)
        base = importance_weights(ProbMatrix(tuple("abc"), values))
        permuted = importance_weights(ProbMatrix(tuple("abc"), values[perm]))
        np.testing.assert_allclose(permuted, base[perm])

    def test_lone_bin_item_has_strictly_largest_weight(self):
        probs = ProbMatrix(("a",), np.array([[0.9], [0.1], [0.1]]))
        w = importance_weights(probs)
        assert w[0] > w[1] and w[0] > w[2]

    def test_weights_add_over_concatenated_label_sets(self):
        # combining two label groups sums their weight contributions
        rng = np.random.default_rng(59)
        content = ProbMatrix(("c1", "c2", "c3"), rng.random((20, 3)))
        context = ProbMatrix(("x1", "x2"), rng.random((20, 2)))
        combined = importance_weights(concat_labels(content, context))
        np.testing.assert_allclose(
            combined,
            importance_weights(content) + importance_weights(context),
            rtol=1e-12,
        )

    def test_bin_counts_sum_to_n(self):
        rng = np.random.default_rng(55)
        probs = ProbMatrix(tuple("ab"), rng.random((37, 2)))
        bins = bin_structure(probs)
        np.testing.assert_array_equal(bins.bin_counts.sum(axis=1), [37, 37])


class TestWeightedSample:
    def test_full_draw_returns_everything(self):
        np.testing.assert_array_equal(
            weighted_sample(np.ones(5), n=5, seed=0), np.arange(5)
        )

    def test_heavy_weight_dominates(self):
        weights = np.array([1e9, 1e-9, 1e-9, 1e-9])
        hits = sum(
            0 in weighted_sample(weights, n=1, seed=s) for s in range(1000)
        )
        assert hits >= 999

    def test_equal_weights_are_uniform(self):
        # chi-square on inclusion counts: 10 items, draw 3, 10000 trials
        n_items, n_draw, trials = 10, 3, 10000
        counts = np.zeros(n_items)
        for s in range(trials):
            counts[weighted_sample(np.ones(n_items), n=n_draw, seed=s)] += 1
        expected = trials * n_draw / n_items
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < chi2.ppf(0.999, df=n_items - 1)

    def test_deterministic_and_sorted(self):
        w = np.array([0.5, 2.0, 1.0, 3.0, 0.1])
        a = weighted_sample(w, n=3, seed=42)
        b = weighted_sample(w, n=3, seed=42)
        np.testing.assert_array_equal(a, b)
        assert np.all(np.diff(a) > 0)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(LabelcalError):
            weighted_sample(np.array([1.0, 0.0]), n=1, seed=0)

    def test_oversized_draw_rejected(self):
        with pytest.raises(LabelcalError):
            weighted_sample(np.ones(3), n=4, seed=0)


def bootstrap_one_call(values, resamples, seed, statistic=None):
    """The unblocked form: every resample's indices from one draw."""
    idx = derive_rng(seed).integers(0, values.size, size=(resamples, values.size))
    if statistic is None:
        return float(values[idx].mean(axis=1).std())
    return float(np.array([statistic(values[row]) for row in idx]).std())


class TestBootstrapStd:
    @pytest.mark.parametrize("n,resamples", [
        (1, 9001), (2, 9001), (7, 2001), (125, 2000), (301, 111),
        (8191, 5), (8192, 5), (8193, 5),
    ])
    def test_blocked_draws_equal_one_call_bit_for_bit(self, n, resamples):
        # block heights 8192 // n: one full block, several with a partial
        # last one, and one row per block from n = 8192 on
        values = np.random.default_rng(n).normal(size=n)
        assert bootstrap_std(values, resamples, seed=n) == bootstrap_one_call(
            values, resamples, seed=n)

    def test_blocked_custom_statistic_equals_one_call(self):
        values = np.random.default_rng(9).normal(size=301)
        for statistic in (np.median, lambda v: float(v.max() - v.min())):
            assert bootstrap_std(values, 111, seed=4, statistic=statistic) == (
                bootstrap_one_call(values, 111, seed=4, statistic=statistic))

    def test_constant_values(self):
        assert bootstrap_std(np.full(50, 3.3), resamples=200, seed=0) == 0.0

    def test_binary_mean_std_matches_clt(self):
        values = np.array([0.0, 1.0] * 50)  # std 0.5, n=100 -> se 0.05
        out = bootstrap_std(values, resamples=10_000, seed=1)
        assert abs(out - 0.05) / 0.05 < 0.1

    def test_single_resample_degenerates_to_zero(self):
        assert bootstrap_std(np.arange(10.0), resamples=1, seed=2) == 0.0

    def test_custom_statistic(self):
        values = np.arange(100.0)
        out = bootstrap_std(values, resamples=500, seed=3, statistic=np.median)
        assert out > 0

    def test_empty_rejected(self):
        with pytest.raises(LabelcalError):
            bootstrap_std(np.array([]), resamples=10, seed=0)


class TestSizingCurve:
    def test_constant_scores_flat_zero(self):
        curve = sizing_curve(
            np.full(400, 1.0), sizes=(50, 100), reps=5, resamples=50, seed=0
        )
        assert curve.mean_std == (0.0, 0.0)

    def test_normal_scores_follow_inverse_sqrt(self):
        rng = np.random.default_rng(56)
        scores = rng.normal(size=2000)
        sizes = (50, 100, 200)
        curve = sizing_curve(scores, sizes=sizes, reps=40, resamples=800, seed=1)
        for s, std in zip(curve.sizes, curve.mean_std):
            assert abs(std - 1 / np.sqrt(s)) / (1 / np.sqrt(s)) < 0.15

    def test_non_increasing_by_spearman(self):
        rng = np.random.default_rng(57)
        scores = rng.normal(size=1500)
        curve = sizing_curve(
            scores, sizes=range(50, 301, 50), reps=20, resamples=300, seed=2
        )
        rho, _ = spearmanr(curve.sizes, curve.mean_std)
        assert rho < 0

    def test_each_point_matches_its_own_draws(self):
        rng = np.random.default_rng(58)
        scores = rng.normal(size=300)
        curve = sizing_curve(scores, sizes=(50, 80), reps=6, resamples=100, seed=3)
        for size, mean_std in zip(curve.sizes, curve.mean_std):
            stds = []
            for rep in range(6):
                draw = derive_rng(3, size, rep)
                subset = draw.choice(300, size=size, replace=False)
                stds.append(bootstrap_std(scores[subset], 100, seed=draw))
            assert mean_std == float(np.mean(stds))
        alone = sizing_curve(scores, sizes=(80,), reps=6, resamples=100, seed=3)
        assert alone.mean_std == curve.mean_std[1:]

    def test_oversized_request_rejected(self):
        with pytest.raises(LabelcalError, match="exceeds"):
            sizing_curve(np.ones(40), sizes=(50,), reps=2, resamples=10, seed=0)

    @pytest.mark.parametrize("sizes,reps", [((5, 10), 0), ((5, 10), -1), ((0, 5), 2), ((-5, 5), 2)])
    def test_nonpositive_reps_or_size_rejected(self, sizes, reps):
        with pytest.raises(LabelcalError, match="must be >= 1"):
            sizing_curve(np.ones(40), sizes=sizes, reps=reps, resamples=10, seed=0)

    def test_unordered_sizes_rejected_before_any_draw(self, monkeypatch):
        # 10**9 resamples per point would take hours; a draw fails the test at once
        def no_draws(*args):
            raise AssertionError("sizing_curve drew before checking its sizes")

        monkeypatch.setattr("labelcal.sampling.derive_rng", no_draws)
        for sizes in ((300, 50), (50, 50)):
            with pytest.raises(LabelcalError, match="sizes must be strictly increasing"):
                sizing_curve(np.ones(400), sizes=sizes, reps=10, resamples=10**9, seed=0)

    def test_curve_invariants(self):
        with pytest.raises(LabelcalError):
            SizingCurve(sizes=(100, 50), mean_std=(0.1, 0.2), reps=1, resamples=1)

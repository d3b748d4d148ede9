"""Importance weights, weighted sampling, and bootstrap sizing tests."""

import math
from collections.abc import Sequence

import numpy as np
import pytest
from scipy.stats import chi2, spearmanr

import child
from labelcal._util import derive_rng
from labelcal.core import LabelcalError, ProbMatrix
from labelcal.sampling import (
    N_BINS,
    SizingCurve,
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
        combined = importance_weights(
            ProbMatrix(content.labels + context.labels, np.hstack((content.values, context.values))))
        np.testing.assert_allclose(
            combined,
            importance_weights(content) + importance_weights(context),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("case", [
        "random", "exact_edges", "ties", "all_zero_column", "subnormal_max", "one_item",
        "one_label",
    ])
    def test_bytes_equal_the_per_label_loop(self, case):
        rng = np.random.default_rng(56)
        for _ in range(20):
            n, l = int(rng.integers(2, 60)), int(rng.integers(2, 7))
            values = rng.random((n, l))
            if case == "exact_edges":  # every value on an edge i * max / 5
                peak = rng.random(l)
                values = rng.integers(0, N_BINS, (n, l)) * peak / N_BINS
                values[0] = peak
            elif case == "ties":
                values = np.round(values, 1)
            elif case == "all_zero_column":
                values[:, int(rng.integers(0, l))] = 0.0
            elif case == "subnormal_max":
                values[:, 0] = rng.integers(0, 2, n) * 5e-324
                values[0, 0] = 5e-324
            elif case == "one_item":
                values = values[:1]
            elif case == "one_label":
                values = values[:, :1]
            probs = ProbMatrix(tuple(f"l{j}" for j in range(values.shape[1])), values)
            assert importance_weights(probs).tobytes() == per_label_loop_weights(probs).tobytes()


def per_label_loop_weights(probs):
    """The per-label loop that binned one column at a time (searchsorted
    over the column's four inner edges), kept as the reference."""
    values = probs.values
    max_prob = values.max(axis=0)
    bin_index = np.zeros(values.shape, dtype=np.int64)
    bin_counts = np.zeros((probs.n_labels, N_BINS), dtype=np.int64)
    for j in range(probs.n_labels):
        p = max_prob[j]
        if p > 0:
            edges = np.array([i * p / N_BINS for i in range(1, N_BINS)])
            bin_index[:, j] = np.searchsorted(edges, values[:, j], side="right")
        bin_counts[j] = np.bincount(bin_index[:, j], minlength=N_BINS)
    own = bin_counts[np.arange(probs.n_labels)[None, :], bin_index]
    return (1.0 / own).sum(axis=1)


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


def bootstrap_one_call(values, resamples, seed):
    """Standard deviation of the mean across bootstrap replicates, every
    resample's indices from one draw, about the first replicate."""
    idx = derive_rng(seed).integers(0, values.size, size=(resamples, values.size))
    replicates = values[idx].mean(axis=1)
    return float((replicates - replicates[0]).std())


class TestSizingCurve:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_is_named(self, bad):
        scores = np.linspace(0.0, 1.0, 20)
        scores[[6, 11]] = bad
        with pytest.raises(LabelcalError, match=f"^score 7 is not finite: {bad}$"):
            sizing_curve(scores, sizes=(5,), reps=1)

    def test_constant_scores_flat_zero(self):
        curve = sizing_curve(np.full(400, 1.0), sizes=(50, 100), reps=5, seed=0)
        assert curve.mean_std == (0.0, 0.0)

    def test_equal_values_give_exactly_zero(self):
        # np.full(50, 0.1).std() is about 2.8e-17, not 0: the mean of
        # fifty 0.1s rounds away from 0.1
        assert np.full(50, 0.1).std() > 0
        curve = sizing_curve(np.full(400, 0.1), sizes=(3, 50, 300), reps=4, seed=0)
        assert curve.mean_std == (0.0, 0.0, 0.0)

    def test_size_one_gives_zero(self):
        scores = np.random.default_rng(59).normal(size=100)
        assert sizing_curve(scores, sizes=(1, 2), reps=7, seed=4).mean_std[0] == 0.0

    def test_normal_scores_follow_inverse_sqrt(self):
        rng = np.random.default_rng(56)
        scores = rng.normal(size=2000)
        sizes = (50, 100, 200)
        curve = sizing_curve(scores, sizes=sizes, reps=40, seed=1)
        for s, std in zip(curve.sizes, curve.mean_std):
            assert abs(std - 1 / np.sqrt(s)) / (1 / np.sqrt(s)) < 0.15

    def test_non_increasing_by_spearman(self):
        rng = np.random.default_rng(57)
        scores = rng.normal(size=1500)
        curve = sizing_curve(scores, sizes=range(50, 301, 50), reps=20, seed=2)
        rho, _ = spearmanr(curve.sizes, curve.mean_std)
        assert rho < 0

    def test_each_point_matches_its_own_draws(self):
        # the closed form on the same subsets, as a plain loop: the
        # population SD of the subset over sqrt(size)
        rng = np.random.default_rng(58)
        scores = rng.normal(size=300)
        curve = sizing_curve(scores, sizes=(50, 80), reps=6, seed=3)
        for size, mean_std in zip(curve.sizes, curve.mean_std):
            ses = []
            for rep in range(6):
                subset = derive_rng(3, size, rep).choice(300, size=size, replace=False)
                chosen = [float(scores[i]) for i in subset]
                mean = sum(chosen) / size
                sd = math.sqrt(sum((v - mean) ** 2 for v in chosen) / size)
                ses.append(sd / math.sqrt(size))
            assert mean_std == pytest.approx(sum(ses) / 6, rel=1e-12, abs=0)
        alone = sizing_curve(scores, sizes=(80,), reps=6, seed=3)
        assert alone.mean_std == curve.mean_std[1:]

    @pytest.mark.parametrize("size", [50, 300])
    def test_points_agree_with_simulated_bootstrap(self, size):
        # 20000 bootstrap replicates have a relative Monte Carlo error of
        # about 1/sqrt(2 * 20000) = 0.5%; 3% is six of those
        scores = np.random.default_rng(60).exponential(size=400)
        curve = sizing_curve(scores, sizes=(size,), reps=2, seed=5)
        simulated = [
            bootstrap_one_call(
                scores[derive_rng(5, size, rep).choice(400, size=size, replace=False)],
                20_000, seed=rep,
            )
            for rep in range(2)
        ]
        assert curve.mean_std[0] == pytest.approx(np.mean(simulated), rel=0.03)

    def test_oversized_request_rejected(self):
        with pytest.raises(LabelcalError, match="exceeds"):
            sizing_curve(np.ones(40), sizes=(50,), reps=2, seed=0)

    def test_largest_size_checked_before_the_sizes_are_built(self):
        class Unbuilt(Sequence):
            """A range of 9.2e17 sizes that fails the test when iterated."""

            def __init__(self):
                self.sizes = range(10, 2**63, 10)

            def __len__(self):
                return len(self.sizes)

            def __getitem__(self, i):
                return self.sizes[i]

            def __iter__(self):
                raise AssertionError("sizing_curve built the sizes before checking them")

        with pytest.raises(LabelcalError, match=f"^sample size {2**63 - 8} exceeds population 40$"):
            sizing_curve(np.ones(40), sizes=Unbuilt(), reps=2, seed=0)

    @pytest.mark.parametrize("sizes,reps", [((5, 10), 0), ((5, 10), -1), ((0, 5), 2), ((-5, 5), 2)])
    def test_nonpositive_reps_or_size_rejected(self, sizes, reps):
        with pytest.raises(LabelcalError, match="must be >= 1"):
            sizing_curve(np.ones(40), sizes=sizes, reps=reps, seed=0)

    def test_unordered_sizes_rejected_before_any_draw(self, monkeypatch):
        # 10**6 reps per size would draw for about a minute; a draw fails
        # the test at once
        def no_draws(*args):
            raise AssertionError("sizing_curve drew before checking its sizes")

        monkeypatch.setattr("labelcal.sampling.derive_rng", no_draws)
        # the last two have their first size below the last: only the
        # check of the built sizes sees them
        for sizes in ((300, 50), (50, 50), (50, 70, 60), (50, 60, 60, 70)):
            with pytest.raises(LabelcalError, match="^sizes must be strictly increasing$"):
                sizing_curve(np.ones(400), sizes=sizes, reps=10**6, seed=0)
        # a tuple of either range would fill any memory, so they run in a
        # child whose address space is capped; the second increases, and
        # its first size is the smallest
        run = child.run("-c", (
            "import numpy as np\n"
            "from labelcal import sampling\n"
            "def no_draws(*args):\n"
            "    raise AssertionError('sizing_curve drew before checking its sizes')\n"
            "sampling.derive_rng = no_draws\n"
            "for sizes, reps in ((range(10**12, 0, -1), 10**6), (range(-10**12, 5), 10)):\n"
            "    try:\n"
            "        sampling.sizing_curve(np.ones(100), sizes=sizes, reps=reps)\n"
            "    except sampling.LabelcalError as exc:\n"
            "        print(exc)\n"), budget=64 << 20, timeout=60)
        assert (run.stdout, run.stderr) == (
            "sizes must be strictly increasing\n"
            "sample sizes and reps must be >= 1, got -1000000000000 and 10\n", "")

    def test_curve_invariants(self):
        with pytest.raises(LabelcalError, match="^standard deviations must be non-negative$"):
            SizingCurve(sizes=(50, 100), mean_std=(0.1, -0.2), reps=1)

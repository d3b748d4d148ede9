"""Metric tests, each against an independent oracle where one exists."""

import math

import numpy as np
import pytest

from labelcal import metrics
from labelcal.core import LabelcalError, LabelMatrix, ProbMatrix
from labelcal.metrics import (
    UndefinedMetricError,
    balanced_accuracy,
    expected_calibration_error,
    label_count_error_rate,
    macro_roc_auc,
    mean_roc_auc,
    roc_auc,
    tendency_error,
    tendency_series_from_matrix,
    tendency_values,
)


def auc_pair_counting(scores, labels):
    """Brute-force oracle: fraction of (pos, neg) pairs ranked correctly."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


class TestRocAuc:
    def test_hand_example(self):
        scores = [0.1, 0.4, 0.35, 0.8]
        labels = [0, 0, 1, 1]
        assert auc_pair_counting(scores, labels) == 0.75
        np.testing.assert_allclose(roc_auc(scores, labels), 0.75)

    def test_perfect_separation(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_matches_pair_counting_on_random_inputs(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            scores = rng.choice([0.1, 0.25, 0.5, 0.7, 0.9], size=n)  # force ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            np.testing.assert_allclose(
                roc_auc(scores, labels), auc_pair_counting(scores, labels), rtol=1e-12
            )

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(22)
        scores = rng.random(40)
        labels = rng.integers(0, 2, size=40)
        np.testing.assert_allclose(
            roc_auc(scores, labels), roc_auc(np.exp(3 * scores), labels), rtol=1e-12
        )

    def test_negation_complements_without_ties(self):
        rng = np.random.default_rng(23)
        scores = rng.permutation(30) / 30.0  # distinct
        labels = np.array([0, 1] * 15)
        total = roc_auc(scores, labels) + roc_auc(-scores, labels)
        np.testing.assert_allclose(total, 1.0, rtol=1e-12)

    def test_degenerate_labels_undefined(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc([0.1, 0.2], [1, 1])


class TestMacroRocAuc:
    def test_arithmetic_mean(self):
        # label a separates perfectly (AUC 1.0); label b is all ties (0.5)
        probs = ProbMatrix(("a", "b"), np.array([[0.1, 0.5], [0.9, 0.5]]))
        truth = LabelMatrix(("a", "b"), np.array([[0, 1], [1, 0]]))
        out = macro_roc_auc(probs, truth)
        np.testing.assert_allclose(out.per_label["a"], 1.0)
        np.testing.assert_allclose(out.per_label["b"], 0.5)
        np.testing.assert_allclose(out.value, 0.75)

    def test_undefined_labels_excluded(self):
        probs = ProbMatrix(("a", "b"), np.array([[0.1, 0.4], [0.9, 0.6]]))
        truth = LabelMatrix(("a", "b"), np.array([[1, 1], [1, 0]]))  # 'a' all-positive
        out = macro_roc_auc(probs, truth)
        assert out.undefined == ("a",)
        np.testing.assert_allclose(out.value, out.per_label["b"])

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(24)
        probs = ProbMatrix(("a", "b"), rng.random((10000, 2)))
        truth = LabelMatrix(("a", "b"), rng.integers(0, 2, size=(10000, 2)))
        out = macro_roc_auc(probs, truth)
        assert abs(out.value - 0.5) < 0.02

    def test_all_undefined_raises(self):
        probs = ProbMatrix(("a",), np.array([[0.1], [0.9]]))
        truth = LabelMatrix(("a",), np.array([[1], [1]]))
        with pytest.raises(UndefinedMetricError):
            macro_roc_auc(probs, truth)

    def test_array_helper_gives_the_macro_score(self):
        rng = np.random.default_rng(8)
        y = (rng.random((40, 4)) < 0.3).astype(int)
        y[:, 2] = 0  # undefined
        probs = ProbMatrix(tuple("abcd"), rng.random((40, 4)))
        out = macro_roc_auc(probs, LabelMatrix(tuple("abcd"), y))
        value, aucs = mean_roc_auc(probs.values, y)
        assert value == out.value
        assert aucs == [out.per_label.get(name) for name in "abcd"]
        assert aucs[2] is None and out.undefined == ("c",)


class TestBalancedAccuracy:
    def test_perfect(self):
        assert balanced_accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_hand_count(self):
        # class 0 recall 1/2, class 1 recall 2/2
        assert balanced_accuracy([0, 1, 1, 1], [0, 0, 1, 1]) == 0.75

    def test_constant_prediction_two_balanced_classes(self):
        assert balanced_accuracy([0, 0, 0, 0], [0, 0, 1, 1]) == 0.5

    def test_class_permutation_invariance(self):
        rng = np.random.default_rng(25)
        truth = rng.integers(0, 4, size=60)
        pred = rng.integers(0, 4, size=60)
        perm = rng.permutation(4)
        np.testing.assert_allclose(
            balanced_accuracy(pred, truth),
            balanced_accuracy(perm[pred], perm[truth]),
        )

    def test_empty_rejected(self):
        with pytest.raises(Exception):
            balanced_accuracy([], [])


class TestExpectedCalibrationError:
    def test_single_bin_arithmetic(self):
        probs = np.full(10, 0.9)
        labels = np.array([1] * 5 + [0] * 5)
        np.testing.assert_allclose(
            expected_calibration_error(probs, labels), 0.4, rtol=1e-12
        )

    def test_exact_predictions_have_zero_error(self):
        labels = np.array([0, 1, 0, 1])
        assert expected_calibration_error(labels.astype(float), labels) == 0.0

    def test_empty_bins_contribute_nothing(self):
        # everything lands in two bins; the other eight add nothing
        probs = np.array([0.05, 0.05, 0.95, 0.95])
        labels = np.array([0, 0, 1, 1])
        np.testing.assert_allclose(
            expected_calibration_error(probs, labels), 0.05, rtol=1e-12
        )

    def test_final_bin_right_closed(self):
        assert expected_calibration_error(np.array([1.0]), np.array([1])) == 0.0

    @staticmethod
    def every_bin(probs, labels, bins):
        """The loop over every bin that walking the occupied bins replaced."""
        with np.errstate(invalid="ignore"):  # NaN casts to a bin no loop reaches
            idx = np.minimum((probs * bins).astype(np.int64), bins - 1)
        ece = 0.0
        for b in range(bins):
            member = idx == b
            n_b = int(member.sum())
            if n_b == 0:
                continue
            gap = abs(float(labels[member].mean()) - float(probs[member].mean()))
            ece += n_b / probs.size * gap
        return ece

    @staticmethod
    def exact_bins(probs, labels, bins):
        """Bins as Python integers, min(trunc(p * bins), bins - 1), for bin
        counts no loop over every bin can walk."""
        members = {}
        for i, p in enumerate(probs.tolist()):
            if math.isfinite(p):
                b = min(math.trunc(p * bins), bins - 1)
                if b >= 0:
                    members.setdefault(b, []).append(i)
        ece = 0.0
        for b in sorted(members):
            member = np.array(members[b])
            gap = abs(float(labels[member].mean()) - float(probs[member].mean()))
            ece += member.size / probs.size * gap
        return ece

    @pytest.mark.parametrize("bins", [1, 2, 3, 7, 10, 64, 1000])
    def test_occupied_bins_equal_every_bin_bit_for_bit(self, bins):
        rng = np.random.default_rng(30 + bins)
        edges = np.arange(bins + 1) / bins  # k / bins times bins may land a ulp low
        on_edges = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)])
        for _ in range(20):
            probs = np.concatenate([rng.choice(on_edges, size=40), rng.random(40),
                                    [0.0, -0.0, 1.0, -0.05, -0.5, 1.5, np.nan]])
            rng.shuffle(probs)
            labels = rng.integers(0, 2, size=probs.size).astype(float)
            got = expected_calibration_error(probs, labels, bins=bins)
            assert got.hex() == self.every_bin(probs, labels, bins).hex()

    @pytest.mark.parametrize("bins", [10**9, 2**53 + 1, 2**60 + 384, 10**20])
    def test_bin_counts_past_any_loop_or_int64(self, bins):
        # at 2**60 + 384, bins - 1 rounds down to a float that
        # (1 - 2**-53) * bins reaches, while 1.0 * bins rounds above it:
        # the two must stay in separate bins, and labels 0 and 2 give
        # them gaps of opposite sign, which one bin would cancel
        rng = np.random.default_rng(31)
        probs = np.concatenate([[1.0, 1.0 - 2.0**-53, 0.0, 0.5, 1.0 - 2.0**-52],
                                rng.random(60), rng.random(20) * 1e-6])
        labels = np.concatenate([[0.0, 2.0], rng.integers(0, 2, size=probs.size - 2)])
        got = expected_calibration_error(probs, labels, bins=bins)
        assert got.hex() == self.exact_bins(probs, labels, bins).hex()


class TestLabelCountErrorRate:
    def test_identical_matrices_zero(self):
        truth = LabelMatrix(("a", "b"), np.array([[1, 0], [0, 1]]))
        probs = ProbMatrix(("a", "b"), truth.values.astype(float))
        assert label_count_error_rate(probs, truth).value == 0.0

    def test_ten_percent_overshoot(self):
        # true count 10, predicted sum 11 -> |11 - 10| / 10 = 0.10
        truth = LabelMatrix(("a",), np.vstack([np.ones((10, 1), int), [[0]]]))
        probs = ProbMatrix(("a",), np.ones((11, 1)))
        out = label_count_error_rate(probs, truth)
        np.testing.assert_allclose(out.value, 0.1, rtol=1e-12)

    def test_mean_of_per_label_errors(self):
        # label a: predicted sum 6 vs true 5 -> 0.2 ; label b: exact -> 0.0
        truth = LabelMatrix(("a", "b"), np.vstack([np.ones((5, 2), int), [[0, 1]]]))
        probs = ProbMatrix(("a", "b"), np.ones((6, 2)))
        out = label_count_error_rate(probs, truth)
        np.testing.assert_allclose(out.per_label["a"], 0.2, rtol=1e-12)
        np.testing.assert_allclose(out.per_label["b"], 0.0, atol=1e-15)
        np.testing.assert_allclose(out.value, 0.1, rtol=1e-12)

    def test_zero_count_labels_excluded(self):
        truth = LabelMatrix(("a", "b"), np.array([[1, 0], [1, 0]]))
        probs = ProbMatrix(("a", "b"), np.array([[1.0, 0.3], [1.0, 0.2]]))
        out = label_count_error_rate(probs, truth)
        assert out.excluded == ("b",)
        np.testing.assert_allclose(out.value, 0.0, atol=1e-15)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(26)
        values = rng.random((30, 4))
        y = rng.integers(0, 2, size=(30, 4))
        y[0] = 1  # ensure positive counts
        labels = ("a", "b", "c", "d")
        perm = rng.permutation(30)
        a = label_count_error_rate(ProbMatrix(labels, values), LabelMatrix(labels, y))
        b = label_count_error_rate(
            ProbMatrix(labels, values[perm]), LabelMatrix(labels, y[perm])
        )
        np.testing.assert_allclose(a.value, b.value, rtol=1e-12)

    def test_all_zero_counts_raise(self):
        truth = LabelMatrix(("a",), np.zeros((3, 1), dtype=int))
        probs = ProbMatrix(("a",), np.full((3, 1), 0.2))
        with pytest.raises(UndefinedMetricError):
            label_count_error_rate(probs, truth)


def old_tendency_values(yearly_counts, total):
    """The per-series code that the one-array ``tendency_values`` replaced:
    a {year: count} dict of consecutive years and the label's total give
    its tick and its values."""
    years = sorted(yearly_counts)
    if len(years) < 2:
        raise LabelcalError(f"need at least 2 years, got {len(years)}")
    if any(b - a != 1 for a, b in zip(years, years[1:])):
        raise LabelcalError(f"years must be consecutive, got {years}")
    counts = np.array([yearly_counts[y] for y in years], dtype=np.float64)
    tick = max(float(total) / 40.0, 1.0)
    diffs = np.diff(counts)
    values = np.zeros(diffs.size, dtype=np.int8)
    values[diffs >= tick] = 1
    values[diffs <= -tick] = -1
    return values


def step_value(step, total):
    """The tendency value of a two-year series that moves by ``step``."""
    return int(tendency_values([0.0, step], total)[0])


class TestTendencyValues:
    def test_constant_counts_are_flat(self):
        values = tendency_values([5.0, 5.0, 5.0], 15.0)
        np.testing.assert_array_equal(values, [0, 0])
        assert values.dtype == np.int8

    def test_small_total_tick_floor(self):
        # max(5/40, 1) = 1; jump of 5 >= 1
        assert step_value(5.0, 5.0) == 1
        # the tick is exactly 1.0: a move of 1.0 counts, one a ulp smaller does not
        below = np.nextafter(1.0, 0.0)
        assert (step_value(1.0, 5.0), step_value(below, 5.0)) == (1, 0)
        assert (step_value(-1.0, 5.0), step_value(-below, 5.0)) == (-1, 0)

    def test_large_total_tick(self):
        # max(400/40, 1) = 10; jump of 5 < 10
        np.testing.assert_array_equal(tendency_values([100.0, 105.0], 400.0), [0])
        # the tick is exactly 10.0
        below = np.nextafter(10.0, 0.0)
        assert (step_value(10.0, 400.0), step_value(below, 400.0)) == (1, 0)
        assert (step_value(-10.0, 400.0), step_value(-below, 400.0)) == (-1, 0)

    def test_values_stay_in_range(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            counts = rng.integers(0, 50, size=10).astype(float)
            values = tendency_values(counts, float(rng.integers(1, 2000)))
            assert set(np.unique(values)).issubset({-1, 0, 1})

    def test_scaling_counts_and_total_together(self):
        rng = np.random.default_rng(28)
        for _ in range(30):
            counts = rng.uniform(0, 30, size=8)
            total = float(rng.uniform(40.0, 400.0))  # C/40 >= 1
            lam = float(rng.uniform(1.0, 5.0))
            np.testing.assert_array_equal(
                tendency_values(counts, total), tendency_values(lam * counts, lam * total))

    def test_single_year_rejected(self):
        with pytest.raises(LabelcalError, match="^need at least 2 years, got 1$"):
            tendency_values([1.0], 1.0)
        with pytest.raises(LabelcalError, match="^need at least 2 years, got 1$"):
            tendency_values([[1.0, 2.0]], [1.0, 2.0])

    @pytest.mark.parametrize("n_years", [2, 3, 12])
    def test_columns_equal_the_old_per_series_code(self, n_years):
        # integer counts make exact ties (a move equal to the tick) common;
        # flat columns, zero totals (tick 1) and totals whose tick is a
        # fraction of a count are all drawn
        rng = np.random.default_rng(29 + n_years)
        for _ in range(40):
            n_labels = int(rng.integers(1, 9))
            counts = rng.integers(0, 12, size=(n_years, n_labels)).astype(float)
            counts[:, 0] = counts[0, 0]  # one flat column
            totals = rng.choice([0.0, 40.0, 80.0, 120.0, 400.0, 41.5], size=n_labels)
            got = tendency_values(counts, totals)
            assert got.shape == (n_years - 1, n_labels) and got.dtype == np.int8
            for j in range(n_labels):
                old = old_tendency_values(dict(zip(range(1980, 1980 + n_years), counts[:, j])),
                                          totals[j])
                assert got[:, j].tolist() == old.tolist()
                assert tendency_values(counts[:, j], totals[j]).tolist() == old.tolist()
            assert (got[:, 0] == 0).all()


class TestTendencyError:
    def make(self, values):
        counts, level = [100.0], 100.0
        for v in values:
            level += v * 50.0  # +-50 clears any tick decisively, 0 stays flat
            counts.append(level)
        return tendency_values(counts, sum(counts))

    def test_identical_series_zero_percent(self):
        pred = self.make([1, 0, -1, 0])
        assert tendency_error(pred, pred) == 0.0

    def test_maximal_disagreement_two_hundred_percent(self):
        pred = self.make([1, 1, 1])
        truth = self.make([-1, -1, -1])
        np.testing.assert_array_equal(pred, [1, 1, 1])
        np.testing.assert_array_equal(truth, [-1, -1, -1])
        assert tendency_error(pred, truth) == 200.0

    def test_mean_of_absolute_differences(self):
        pred = self.make([1, 0, 0, 1])
        truth = self.make([0, 0, 0, 0])
        # differences [1, 0, 0, 1] -> mean 0.5 -> 50%
        assert tendency_error(pred, truth) == 50.0

    def test_mismatched_year_ranges_rejected(self):
        pred = self.make([1, 0])
        truth = self.make([1, 0, 1])
        with pytest.raises(LabelcalError, match=r"^tendency values \(2,\) and \(3,\) cannot"):
            tendency_error(pred, truth)
        # a different label count is a different shape too
        with pytest.raises(LabelcalError, match=r"\(2, 3\) and \(2, 2\) cannot be compared"):
            tendency_error(np.zeros((2, 3), np.int8), np.zeros((2, 2), np.int8))

    def test_all_cells_averaged_jointly(self):
        # label a differs on one pair of two, label b on none: 1 of 4 cells
        pred = np.array([[1, 0], [0, -1]], dtype=np.int8)
        truth = np.array([[0, 0], [0, -1]], dtype=np.int8)
        assert tendency_error(pred, truth) == 25.0
        assert tendency_error(pred[:, 0], truth[:, 0]) == 50.0


@pytest.fixture
def tendency_inputs(monkeypatch):
    """The (yearly counts, totals) that each ``tendency_values`` call gets."""
    calls, real = [], metrics.tendency_values

    def record(yearly_counts, totals):
        calls.append((np.array(yearly_counts, dtype=np.float64),
                      np.array(totals, dtype=np.float64)))
        return real(yearly_counts, totals)

    monkeypatch.setattr(metrics, "tendency_values", record)
    return calls


def hex_bits(array):
    return [float(v).hex() for v in np.ravel(array)]


class TestTendencyFromMatrix:
    def test_column_sums_per_year(self, tendency_inputs):
        probs = ProbMatrix(("a",), np.array([[0.5], [0.5], [1.0], [0.0]]))
        values = tendency_series_from_matrix(probs, [1980, 1980, 1981, 1981])
        np.testing.assert_array_equal(values, [[0]])
        [(counts, totals)] = tendency_inputs
        assert counts.tolist() == [[1.0], [1.0]] and totals.tolist() == [2.0]

    @staticmethod
    def by_masks(matrix, years):
        """The per-(label, year) mask loop that the one-sort path replaced,
        giving each label's series to the old per-series code."""
        years = np.asarray(years, dtype=np.int64)
        span = range(int(years.min()), int(years.max()) + 1)
        counts, totals, values = [], [], []
        for j in range(matrix.values.shape[1]):
            column = matrix.values[:, j].astype(np.float64)
            per_year = {y: float(column[years == y].sum()) for y in span}
            counts.append(list(per_year.values()))
            totals.append(float(column.sum()))
            values.append(old_tendency_values(per_year, totals[-1]).tolist())
        return hex_bits(np.array(counts).T), hex_bits(totals), np.array(values).T.tolist()

    @staticmethod
    def bits(values, inputs):
        [(counts, totals)] = inputs
        inputs.clear()
        return hex_bits(counts), hex_bits(totals), values.tolist()

    @pytest.mark.parametrize("n,first,last,gap", [
        (3000, 1990, 2009, None),   # ~150 items a year: pairwise sums with partial blocks
        (3000, 1990, 2009, 1999),   # a year in the span with no items
        (40, 2000, 2003, 2001),
        (3, 1980, 1985, None),      # fewer items than years: most years hold none, one holds one
        (1000, 2000, 2001, None),
    ])
    @pytest.mark.parametrize("kind", ["probs", "labels"])
    def test_one_sort_equals_the_mask_loop_bit_for_bit(
        self, n, first, last, gap, kind, tendency_inputs
    ):
        rng = np.random.default_rng(n + first)
        span = [y for y in range(first, last + 1) if y != gap]
        years = rng.choice(span, size=n)
        years[:2] = first, last  # the span's ends are present, unsorted order
        rng.shuffle(years)
        names = tuple(f"l{j}" for j in range(6))
        if kind == "probs":
            # mixed magnitudes, so a different summation order changes the bits
            values = rng.random((n, 6)) ** 3 * 10.0 ** rng.integers(-8, 3, size=(n, 6))
            matrix = ProbMatrix(names, np.minimum(values, 1.0))
        else:
            matrix = LabelMatrix(names, (rng.random((n, 6)) < 0.3).astype(int))
        got = tendency_series_from_matrix(matrix, years)
        assert got.shape == (last - first, 6)
        if gap is not None:
            assert (tendency_inputs[0][0][gap - first] == 0.0).all()
        assert self.bits(got, tendency_inputs) == self.by_masks(matrix, years)

    def test_single_item_year(self, tendency_inputs):
        probs = ProbMatrix(("a", "b"), np.array([[0.25, 0.5], [0.125, 1.0], [0.75, 0.0]]))
        years = [1981, 1980, 1981]
        got = tendency_series_from_matrix(probs, years)
        assert tendency_inputs[0][0][:, 0].tolist() == [0.125, 1.0]
        assert self.bits(got, tendency_inputs) == self.by_masks(probs, years)

    def test_a_year_without_items_is_a_zero_row(self, tendency_inputs):
        # the rows cover every year of the span, so no year can be skipped
        probs = ProbMatrix(("a",), np.array([[0.5], [1.0], [0.75]]))
        got = tendency_series_from_matrix(probs, [1982, 1980, 1982])
        assert tendency_inputs[0][0].tolist() == [[1.0], [0.0], [1.25]]
        np.testing.assert_array_equal(got, tendency_values([1.0, 0.0, 1.25], 2.25)[:, None])
        np.testing.assert_array_equal(got, [[-1], [1]])

    @pytest.mark.parametrize("years, message", [
        ([1990.7, 1991.2, 1991.9], r"^year 1990\.7 of item 0 is not an integer within int64$"),
        ([1990, 1991, np.nan], r"^year nan of item 2 is not an integer within int64$"),
        ([1990, 1991, 1e19], r"^year 1e\+19 of item 2 is not an integer within int64$"),
        ([[1990], [1991], [1992]], r"^years must be a vector, got shape \(3, 1\)$"),
        (["1990", "1991", "1992"], r"^years must be integers, got <U4$"),
    ])
    def test_years_are_checked_not_cast(self, years, message, tendency_inputs):
        probs = ProbMatrix(("a",), np.array([[0.5], [0.25], [1.0]]))
        with pytest.raises(LabelcalError, match=message):
            tendency_series_from_matrix(probs, years)
        assert tendency_inputs == []
        tendency_series_from_matrix(probs, [1990.0, 1991.0, 1991.0])
        assert tendency_inputs[0][0].tolist() == [[0.5], [1.25]]

    def test_every_item_in_one_year_is_rejected_like_the_mask_loop(self):
        probs = ProbMatrix(("a",), np.array([[0.5], [0.25]]))
        with pytest.raises(LabelcalError, match="need at least 2 years, got 1") as got:
            tendency_series_from_matrix(probs, [1990, 1990])
        with pytest.raises(LabelcalError) as oracle:
            self.by_masks(probs, [1990, 1990])
        assert str(got.value) == str(oracle.value)

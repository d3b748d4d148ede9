"""Loss value and gradient tests.

Every gradient is checked against central finite differences; reduction
identities (focal -> BCE, LDAM -> CE) are checked against independent
stable formulations written here.
"""

import math

import numpy as np
import pytest
from scipy.special import expit

from labelcal.losses import (
    LossValue,
    confidence_penalty,
    focal_loss,
    ldam_loss,
    ldam_margins,
)

# frozen oracle values (computed at 50-digit precision with mpmath)
PENALTY_20_0_0 = -8.6568451794054381265e-08
SOFTPLUS_M19_5 = 3.3982678137209591517e-09
FOCAL_P09_G2 = 1.0536051565782630123e-03


def fd_grad(f, x, h=1e-5):
    """Central finite differences, the independent gradient oracle."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up.flat[i] += h
        down.flat[i] -= h
        grad.flat[i] = (f(up) - f(down)) / (2.0 * h)
    return grad


def bce_reference(logits, targets):
    """Independent stable binary cross-entropy: softplus form."""
    z = np.asarray(logits, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    return float(np.where(t == 1.0, np.logaddexp(0.0, -z), np.logaddexp(0.0, z)).sum())


def focal_expit_reference(logits, targets, gamma):
    """Focal loss terms and gradient with p_t = expit(z_t), 1 - p_t =
    expit(-z_t): the scipy form the numpy-only implementation replaced."""
    sign = 2.0 * targets - 1.0
    z_t = sign * logits
    p_t, one_minus_pt = expit(z_t), expit(-z_t)
    log_pt = -np.logaddexp(0.0, -z_t)
    focus = np.power(one_minus_pt, gamma)
    terms = -focus * log_pt
    grad = sign * (gamma * p_t * focus * log_pt - one_minus_pt * focus)
    return terms, grad


def ce_reference(logits, true_class):
    """Independent stable softmax cross-entropy: log-sum-exp form."""
    z = np.asarray(logits, dtype=np.float64)
    m = z.max()
    return float(m + math.log(np.exp(z - m).sum()) - z[true_class])


class TestFocalLoss:
    def test_logit_zero_positive_gives_ln2(self):
        out = focal_loss(np.array([0.0]), np.array([1]), gamma=0.0)
        np.testing.assert_allclose(out.value, math.log(2.0), rtol=1e-12)

    def test_saturated_positive_is_near_zero(self):
        for gamma in (0.0, 1.0, 2.0, 5.0):
            out = focal_loss(np.array([30.0]), np.array([1]), gamma=gamma)
            assert 0.0 <= out.value < 1e-12

    def test_p09_gamma2(self):
        logit = math.log(9.0)  # sigmoid -> 0.9
        out = focal_loss(np.array([logit]), np.array([1]), gamma=2.0)
        np.testing.assert_allclose(out.value, FOCAL_P09_G2, rtol=1e-9)

    def test_gamma0_reduces_to_bce(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = rng.uniform(-8, 8, size=6)
            t = rng.integers(0, 2, size=6)
            out = focal_loss(z, t, gamma=0.0)
            assert abs(out.value - bce_reference(z, t)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            z = rng.uniform(-5, 5, size=5)
            t = rng.integers(0, 2, size=5)
            gamma = rng.uniform(0, 4)
            out = focal_loss(z, t, gamma=gamma)
            fd = fd_grad(lambda x: focal_loss(x, t, gamma=gamma).value, z)
            np.testing.assert_allclose(out.gradient, fd, rtol=1e-4, atol=1e-9)

    def test_monotone_in_positive_logit(self):
        losses = [
            focal_loss(np.array([z]), np.array([1]), gamma=2.0).value
            for z in np.linspace(-6, 6, 60)
        ]
        assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0, 5.0])
    def test_infinite_logit_on_wrong_side_has_limit_gradient(self, gamma):
        # the gradient tends to -sign; p_t * log(p_t) -> 0
        with np.errstate(all="raise"):
            out = focal_loss(np.array([np.inf, -np.inf]), np.array([0, 1]), gamma=gamma)
        assert out.value == np.inf
        assert np.array_equal(out.gradient, [1.0, -1.0])

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            focal_loss(np.array([0.0]), np.array([1]), gamma=-1.0)


class TestFocalAgainstExpit:
    """The exp-of-log form against scipy's expit.

    exp(log_pt) carries the rounding of log_pt, an absolute error of
    about |z_t| ulp, as a relative error, and (1 - p_t)**gamma raises it
    by gamma.  Past |z_t| = 40 log_pt rounds to -|z_t| or 0 exactly.  So
    each gradient entry and term must agree to
    2 * (1 + gamma) * (min(|z_t|, 40) + 2) ulp (the worst seen is 0.6 of
    that budget over 5.4M random entries).  Entries below 1e-300 may
    differ in the subnormal range.
    """

    @staticmethod
    def check(z, t, gamma):
        with np.errstate(invalid="raise"):
            out = focal_loss(z, t, gamma=gamma)
        with np.errstate(invalid="ignore"):  # 0 * -inf at z_t = -inf
            terms, grad = focal_expit_reference(z, t, gamma)
        budget = 2.0 * (1.0 + gamma) * (np.minimum(np.abs(z), 40.0) + 2.0) * np.finfo(float).eps
        # the expit form takes 0 * -inf at an infinite logit on the wrong
        # side of its target; there the gradient is its limit -sign
        nan = np.isnan(grad)
        limit = -(2.0 * t - 1.0)
        assert np.array_equal(out.gradient[nan], limit[nan])
        fin = np.isfinite(grad)
        assert np.array_equal(out.gradient[~fin & ~nan], grad[~fin & ~nan])
        g, r = out.gradient[fin], grad[fin]
        tol = budget[fin] * np.maximum(np.abs(g), np.abs(r)) + 1e-300
        assert np.all(np.abs(g - r) <= tol)
        value = float(terms.sum())
        if np.isfinite(value):
            assert abs(out.value - value) <= (budget * np.abs(terms)).sum() + 1e-300
        else:
            assert out.value == value

    @pytest.mark.parametrize("scale", [1.0, 5.0, 20.0, 40.0, 745.0])
    def test_random_logits(self, scale):
        rng = np.random.default_rng(int(scale))
        z = rng.normal(scale=scale, size=20_000)
        t = (rng.random(z.size) < 0.3).astype(np.int8)
        for gamma in (0.0, 0.5, 2.0, 5.0):
            self.check(z, t, gamma)

    def test_boundary_logits(self):
        edge = [0.0, -0.0, 36.7, 37.0, 700.0, 745.0, 746.0, 1e308, np.inf]
        z = np.array(edge + [-v for v in edge])
        for target in (0, 1):
            t = np.full(z.size, target)
            for gamma in (0.0, 2.0):
                self.check(z, t, gamma)

    def test_zero_logit_is_exact(self):
        for target in (0, 1):
            out = focal_loss(np.array([0.0]), np.array([target]), gamma=0.0)
            terms, grad = focal_expit_reference(np.array([0.0]), np.array([target]), 0.0)
            assert out.value == terms.sum() and np.array_equal(out.gradient, grad)


class TestLdamMargins:
    def test_sixteen_to_one(self):
        # 16**(-1/4) = 0.5 relative to 1**(-1/4) = 1
        np.testing.assert_allclose(ldam_margins([16, 1], 0.5), [0.25, 0.5], rtol=1e-12)

    def test_equal_counts_all_get_max_margin(self):
        np.testing.assert_allclose(ldam_margins([7, 7, 7], 0.3), [0.3, 0.3, 0.3])

    def test_single_class(self):
        np.testing.assert_allclose(ldam_margins([42], 0.5), [0.5])

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            ldam_margins([4, 0], 0.5)


class TestLdamLoss:
    def test_zero_margins_uniform_logits(self):
        out = ldam_loss(np.zeros(2), 0, np.zeros(2))
        np.testing.assert_allclose(out.value, math.log(2.0), rtol=1e-12)

    def test_margin_cancels_logit_advantage(self):
        out = ldam_loss(np.array([5.0, 0.0]), 0, np.array([5.0, 0.0]))
        np.testing.assert_allclose(out.value, math.log(2.0), rtol=1e-12)

    def test_saturated_case(self):
        out = ldam_loss(np.array([10.0, -10.0]), 0, np.array([0.5, 0.0]))
        # log(1 + 3.4e-9) in float64 carries ~1e-7 relative cancellation noise
        np.testing.assert_allclose(out.value, SOFTPLUS_M19_5, rtol=1e-6)

    def test_zero_margins_reduce_to_cross_entropy(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            z = rng.uniform(-8, 8, size=5)
            y = int(rng.integers(5))
            out = ldam_loss(z, y, np.zeros(5))
            assert abs(out.value - ce_reference(z, y)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            z = rng.uniform(-5, 5, size=k)
            y = int(rng.integers(k))
            margins = rng.uniform(0, 1, size=k)
            out = ldam_loss(z, y, margins)
            fd = fd_grad(lambda x: ldam_loss(x, y, margins).value, z)
            np.testing.assert_allclose(out.gradient, fd, rtol=1e-4, atol=1e-9)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            ldam_loss(np.zeros(3), 3, np.zeros(3))

    def test_batch_index_out_of_range(self):
        with pytest.raises(IndexError):
            ldam_loss(np.zeros((2, 3)), np.array([0, 3]), np.zeros(3))

    def test_batch_needs_one_class_per_row(self):
        for classes in (0, np.array([0, 1, 2])):
            with pytest.raises(ValueError):
                ldam_loss(np.zeros((2, 3)), classes, np.zeros(3))


class TestConfidencePenalty:
    def test_uniform_logits_hit_max_entropy(self):
        out = confidence_penalty(np.zeros(4), beta=1.0)
        np.testing.assert_allclose(out.value, -math.log(4.0), rtol=1e-12)
        np.testing.assert_allclose(out.gradient, np.zeros(4), atol=1e-15)

    def test_beta_zero(self):
        out = confidence_penalty(np.array([3.0, -1.0]), beta=0.0)
        assert out.value == 0.0
        np.testing.assert_array_equal(out.gradient, np.zeros(2))

    def test_near_deterministic_distribution(self):
        out = confidence_penalty(np.array([20.0, 0.0, 0.0]), beta=1.0)
        np.testing.assert_allclose(out.value, PENALTY_20_0_0, rtol=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            z = rng.uniform(-5, 5, size=k)
            beta = rng.uniform(0.1, 3.0)
            out = confidence_penalty(z, beta=beta)
            fd = fd_grad(lambda x: confidence_penalty(x, beta=beta).value, z)
            np.testing.assert_allclose(out.gradient, fd, rtol=1e-4, atol=1e-9)

    def test_uniform_is_the_minimizer(self):
        rng = np.random.default_rng(16)
        uniform = confidence_penalty(np.zeros(5), beta=1.0).value
        for _ in range(200):
            z = rng.uniform(-6, 6, size=5)
            assert confidence_penalty(z, beta=1.0).value >= uniform - 1e-12

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            confidence_penalty(np.zeros(2), beta=-0.5)


class TestBatches:
    """(n, C) logits: one softmax per row, the value the batch total."""

    def test_ldam_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n, k = int(rng.integers(1, 6)), int(rng.integers(2, 6))
            z = rng.uniform(-5, 5, size=(n, k))
            y = rng.integers(0, k, size=n)
            margins = rng.uniform(0, 1, size=k)
            out = ldam_loss(z, y, margins)
            fd = fd_grad(lambda x: ldam_loss(x, y, margins).value, z)
            np.testing.assert_allclose(out.gradient, fd, rtol=1e-4, atol=1e-9)

    def test_penalty_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            n, k = int(rng.integers(1, 6)), int(rng.integers(2, 6))
            z = rng.uniform(-5, 5, size=(n, k))
            beta = rng.uniform(0.1, 3.0)
            out = confidence_penalty(z, beta=beta)
            fd = fd_grad(lambda x: confidence_penalty(x, beta=beta).value, z)
            np.testing.assert_allclose(out.gradient, fd, rtol=1e-4, atol=1e-9)


class TestLossValue:
    def test_gradient_length_matches_logits(self):
        out = focal_loss(np.zeros(7), np.ones(7, dtype=int))
        assert isinstance(out, LossValue)
        assert out.gradient.shape == (7,)
        assert math.isfinite(out.value)

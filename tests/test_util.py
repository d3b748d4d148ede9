"""Seed derivation, the array-length check, and the numpy ports of scipy's
rankdata and logsumexp, checked bit for bit against scipy itself."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import rankdata

from labelcal._util import array_length, average_ranks, derive_rng, logsumexp
from labelcal.core import LabelcalError


def assert_bit_equal(ours, theirs):
    assert np.shape(ours) == np.shape(theirs)
    assert np.asarray(ours).dtype == np.asarray(theirs).dtype
    assert np.array_equal(ours, theirs, equal_nan=True), (ours, theirs)


VECTORS = {
    "ties": [0.3, 0.1, 0.3, 0.2, 0.1, 0.3],
    "all_equal": [0.5] * 7,
    "single": [0.25],
    "two_tied_maxima": [1.0, 3.0, -2.0, 3.0],
    "three_tied_maxima": [3.0, 3.0, 3.0, 0.0],
    "near_plus_700": [700.0, 699.5, 709.0, 708.9, 700.0],
    "near_minus_700": [-700.0, -745.0, -699.0, -708.0],
    "mixed_700": [-700.0, 700.0, 0.0, -700.0],
    "minus_inf_entries": [-np.inf, 1.0, -np.inf, 0.5],
    "all_minus_inf": [-np.inf, -np.inf],
    "plus_inf": [np.inf, 1.0],
    "signed_zeros": [0.0, -0.0, 1e-300, -1e-300],
}


@pytest.mark.parametrize("name", sorted(VECTORS))
def test_average_ranks_equals_rankdata(name):
    x = np.array(VECTORS[name])
    assert_bit_equal(average_ranks(x), rankdata(x))


@pytest.mark.parametrize("name", sorted(VECTORS))
def test_logsumexp_of_a_vector_equals_scipy(name):
    x = np.array(VECTORS[name])
    assert_bit_equal(logsumexp(x), scipy_logsumexp(x))


def test_average_ranks_nan_propagates():
    x = np.array([0.2, np.nan, 0.1])
    assert_bit_equal(average_ranks(x), rankdata(x))


def test_average_ranks_random_vectors_with_ties():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 10, 1000):
        x = rng.choice(np.linspace(0.0, 1.0, 7), size=n)
        assert_bit_equal(average_ranks(x), rankdata(x))
        y = rng.random(n)
        assert_bit_equal(average_ranks(y), rankdata(y))


@pytest.mark.parametrize("axis", [None, 0, 1])
def test_logsumexp_of_a_matrix_equals_scipy(axis):
    """Ours reduces the last axis: scipy's axis 1 of the matrix, its axis
    0 of the transpose, and all entries of the flattened matrix."""
    rows = [
        [1.0, 3.0, -2.0, 3.0],         # two tied maxima
        [2.0, 2.0, 2.0, 2.0],          # all equal
        [-np.inf, 0.5, -np.inf, 0.1],  # -inf entries
        [-np.inf] * 4,                 # nothing to sum
        [700.0, -700.0, 709.0, 709.0],
        [-745.0, -700.0, -720.0, -745.0],
    ]
    x = np.array(rows)
    ours = {None: x.ravel(), 0: x.T, 1: x}[axis]
    assert_bit_equal(logsumexp(ours), scipy_logsumexp(x, axis=axis))


def test_logsumexp_random_logit_rows():
    rng = np.random.default_rng(6)
    for scale in (1.0, 30.0, 700.0):
        x = scale * rng.normal(size=(50, 9))
        x[::7, 3] = x[::7, 5] = x[::7].max(axis=1) + 1.0  # tied maxima
        assert_bit_equal(logsumexp(x), scipy_logsumexp(x, axis=1))
        assert_bit_equal(logsumexp(x.ravel()), scipy_logsumexp(x))


@pytest.mark.parametrize("key", [(), (3,), (0, 7)])
def test_negative_seed_is_a_data_error_naming_it(key):
    with pytest.raises(LabelcalError, match=r"^seed must be >= 0, got -1$"):
        derive_rng(-1, *key)


def test_derived_streams_keep_their_seed_sequence():
    for entropy in [(0,), (7, 3), (2**70, 0, 5)]:
        ours = derive_rng(*entropy).integers(2**63, size=4)
        theirs = np.random.default_rng(np.random.SeedSequence(entropy)).integers(2**63, size=4)
        assert np.array_equal(ours, theirs)


def test_array_length_stops_at_numpys_byte_limit():
    limit = np.iinfo(np.intp).max  # 2**63 - 1 bytes on 64-bit builds
    assert array_length((limit + 1) // 8 - 1, 8, "x") == (limit + 1) // 8 - 1
    assert array_length(np.float64(2.5), 8, "x") == 2
    for count in [(limit + 1) // 8, limit, np.float64(2.0**60), math.inf, math.nan, 10**400]:
        with pytest.raises(LabelcalError, match=r"^grid: more than an array can hold$"):
            array_length(count, 8, "grid")

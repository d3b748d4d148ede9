"""Property tests: invariants checked on generated inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from scipy.special import logsumexp as scipy_logsumexp  # noqa: E402
from scipy.stats import rankdata  # noqa: E402

from labelcal._util import average_ranks, logsumexp  # noqa: E402
from labelcal.calibration import (  # noqa: E402
    _mean_count_error,
    grid_search_thresholds,
    threshold_grid,
)
from labelcal.core import LabelMatrix, ProbMatrix  # noqa: E402

STEP = 0.1
LOWS, HIGHS = threshold_grid((0.0, 0.5), (0.5, 1.0), STEP)
GRID_POINTS = sorted(set(LOWS.tolist() + HIGHS.tolist()))


@st.composite
def grid_valued_instances(draw):
    """Small (values, truth) pairs whose values are all grid thresholds,
    so ties and values exactly on a threshold occur in every run."""
    n = draw(st.integers(1, 12))
    n_labels = draw(st.integers(1, 3))
    cells = st.lists(st.sampled_from(GRID_POINTS), min_size=n * n_labels,
                     max_size=n * n_labels)
    values = np.array(draw(cells)).reshape(n, n_labels)
    bits = st.lists(st.integers(0, 1), min_size=n * n_labels, max_size=n * n_labels)
    y = np.array(draw(bits)).reshape(n, n_labels)
    y[0] = 1
    return values, y


@settings(max_examples=150, deadline=None)
@given(grid_valued_instances())
def test_grid_search_equals_exhaustive_direct_evaluation(instance):
    values, y = instance
    names = tuple(f"l{j}" for j in range(values.shape[1]))
    t, err = grid_search_thresholds(
        ProbMatrix(names, values), LabelMatrix(names, y), grid_step=STEP
    )
    true_counts = y.sum(axis=0).astype(np.float64)
    pairs = [(lo, hi) for lo in LOWS for hi in HIGHS if lo <= hi]
    e, best = min(
        (_mean_count_error(values, true_counts, lo, hi), p)
        for p, (lo, hi) in enumerate(pairs)
    )
    assert (t.p_low, t.p_high) == pairs[best]
    assert err == e


@st.composite
def float_matrices(draw):
    """Small float matrices; values from a small grid make ties and tied
    maxima, the others reach magnitudes near 700 and -inf."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    grid = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
    wide = st.one_of(
        st.floats(-750.0, 750.0),
        st.sampled_from([-np.inf, -700.0, -1.0, 0.0, 0.5, 2.0, 700.0]),
    )
    cells = st.lists(draw(st.sampled_from([grid, wide])),
                     min_size=rows * cols, max_size=rows * cols)
    return np.array(draw(cells), dtype=np.float64).reshape(rows, cols)


@settings(max_examples=300, deadline=None)
@given(float_matrices())
def test_numpy_ports_equal_scipy_bit_for_bit(x):
    for row in x:
        assert np.array_equal(average_ranks(row), rankdata(row))
    for axis in (None, 1):
        assert np.array_equal(
            logsumexp(x, axis=axis), scipy_logsumexp(x, axis=axis), equal_nan=True
        )

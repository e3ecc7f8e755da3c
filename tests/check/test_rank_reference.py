"""The average-amount detector's Mann-Whitney U test against scipy's.

The detector used to call ``scipy.stats.mannwhitneyu``; it now computes
the p-value in plain Python, so that a detector verdict imports no
scipy.  scipy's function stays here as the reference, with its default
``method="auto"``: the exact null distribution when a sample has at
most 8 values and no value ties, the normal approximation otherwise.

* Exact-branch p-values must be the same float as scipy's, because p
  can equal alpha exactly: at sizes (3, 9) it is 11/220 = 0.05, and
  scipy's running sum gives 0.049999999999999996, which is significant.
* Asymptotic p-values must agree within 1e-12 relative, and give the
  same verdict at each alpha unless scipy's p lies within 1e-9 relative
  of it.

Samples have 1 to 25 values a side, of unequal sizes, and are either
arbitrary floats (almost never tied) or tenths (often tied).
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import mannwhitneyu

from repro.check.detectors import (
    AverageAmountDetector,
    PerformanceChange,
    _mann_whitney_p,
)

ALPHAS = (0.01, 0.05, 0.1)

floats = st.floats(0.1, 100.0, allow_nan=False, allow_infinity=False)
tenths = st.integers(1, 100).map(lambda i: i / 10)


def reference(x, y, greater):
    alternative = "greater" if greater else "less"
    return float(mannwhitneyu(x, y, alternative=alternative).pvalue)


def exact_branch(x, y):
    return not (len(x) > 8 and len(y) > 8) and len(set(x + y)) == len(x) + len(y)


@st.composite
def samples(draw):
    """Two samples whose values are not all the same (the detector
    decides that case on effect size alone)."""
    values = draw(st.sampled_from([floats, tenths]))
    x = draw(st.lists(values, min_size=1, max_size=25))
    y = draw(st.lists(values, min_size=1, max_size=25))
    assume(len(set(x + y)) > 1)
    return x, y


@settings(max_examples=300, deadline=None)
@given(samples(), st.booleans())
def test_p_value_matches_scipy(pair, greater):
    x, y = pair
    got, ref = _mann_whitney_p(x, y, greater), reference(x, y, greater)
    if exact_branch(x, y):
        assert got == ref
        return
    assert math.isclose(got, ref, rel_tol=1e-12)
    for alpha in ALPHAS:
        if abs(ref - alpha) > 1e-9 * alpha:
            assert (got < alpha) == (ref < alpha)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8),
    st.lists(floats, min_size=1, max_size=25, unique=True),
    st.booleans(),
    st.booleans(),
)
def test_small_tie_free_samples_take_the_exact_branch_bit_for_bit(n, pooled, greater, swap):
    """A side of at most 8 values and no ties: scipy's exact branch."""
    x, y = pooled[:n], pooled[n:] or [1000.0]
    if swap:
        x, y = y, x
    assert exact_branch(x, y)
    assert _mann_whitney_p(x, y, greater) == reference(x, y, greater)


@pytest.mark.parametrize(
    "x, y, greater",
    [
        ([5.5, 9.5, 9.6], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], True),
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], [5.5, 9.5, 9.6], False),
        ([0.5, 0.6, 4.5], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], False),
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], [0.5, 0.6, 4.5], True),
    ],
)
def test_sizes_3_and_9_where_p_is_alpha(x, y, greater):
    """11 of the 220 arrangements are as extreme: p = 0.05 = alpha in
    exact arithmetic, just under it in scipy's floats."""
    assert _mann_whitney_p(x, y, greater) == reference(x, y, greater) == 0.049999999999999996


def test_the_detector_calls_p_equal_to_alpha_significant():
    baseline = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    verdict = AverageAmountDetector(alpha=0.05).detect(baseline, [5.5, 9.5, 9.6])
    assert verdict.change is PerformanceChange.DEGRADATION
    assert verdict.detail == "median 5 -> 9.5, p=0.0500"

"""The statistical comparisons' quantiles against scipy's.

``naive_comparison`` and ``required_runs`` used to take their quantiles
from ``scipy.stats``; they now compute them in plain Python, so that no
comparison imports scipy.  scipy's ``t.ppf`` and ``norm.ppf`` stay here
as the references: the Student t quantile for df 1 to 1000 and the
normal quantiles must agree with them within 1e-12 relative.  An
integer built from a quantile (the runs ``required_runs`` plans) must be
the same, unless the reference value lies within 1e-9 relative of an
integer.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm, t

from repro.stats import naive_comparison, required_runs
from repro.stats.comparison import _t_quantile

probabilities = st.floats(0.55, 0.9999)


@settings(max_examples=300, deadline=None)
@given(probabilities, st.integers(1, 1000))
def test_t_quantile_matches_scipy(p, df):
    assert math.isclose(_t_quantile(p, df), float(t.ppf(p, df)), rel_tol=1e-12)


def test_t_quantile_at_the_naive_confidence_for_every_df_up_to_1000():
    for df in range(1, 1001):
        assert math.isclose(
            _t_quantile(0.975, df), float(t.ppf(0.975, df)), rel_tol=1e-12
        ), df


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(1.0, 100.0), min_size=2, max_size=30),
    st.lists(st.floats(1.0, 100.0), min_size=2, max_size=30),
)
def test_naive_interval_matches_the_scipy_quantile(times_a, times_b):
    a, b = np.asarray(times_a), np.asarray(times_b)
    estimate = naive_comparison(a, b)
    se = estimate.point * np.sqrt(
        (np.std(a, ddof=1) / np.mean(a)) ** 2 / a.size
        + (np.std(b, ddof=1) / np.mean(b)) ** 2 / b.size
    )
    margin = float(t.ppf(0.975, min(a.size, b.size) - 1) * se)
    # The interval is point -+ margin; taking point back off costs an ulp of it.
    for width in (estimate.point - estimate.low, estimate.high - estimate.point):
        assert math.isclose(width, margin, rel_tol=1e-12, abs_tol=1e-15 * estimate.point)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.001, 0.5),
    st.floats(0.001, 0.5),
    st.floats(0.51, 0.999),
    st.floats(0.5, 0.999),
)
def test_required_runs_matches_the_scipy_quantiles(cov, effect, confidence, power):
    from statistics import NormalDist

    for p in (1 - (1 - confidence) / 2, power):
        ref = float(norm.ppf(p))
        assert math.isclose(NormalDist().inv_cdf(p), ref, rel_tol=1e-12, abs_tol=1e-15)
    z_alpha = norm.ppf(1 - (1 - confidence) / 2)
    z_beta = norm.ppf(power)
    n = float(2.0 * ((z_alpha + z_beta) * cov / effect) ** 2)
    if abs(n - round(n)) > 1e-9 * n:
        assert required_runs(cov, effect, confidence, power) == math.ceil(n)

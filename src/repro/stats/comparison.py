"""Controlled and statistical performance comparison.

The paper (§ *Numerical vs. Performance Reproducibility*) contrasts two
ways to compare systems:

* **controlled** — a deterministic environment where every factor is
  quantified; one run per system suffices and the comparison is a plain
  ratio;
* **statistical** — execute both systems across many distinct
  environments, then state claims in statistical terms, e.g. "with 95 %
  confidence one system is 10x better than the other";

and notes the common (bad) practice of "run 10 times on one machine and
report averages".  This module implements all three, so a Popperized
experiment can codify *which* reproducibility claim it makes.

The quantiles behind the naive interval and the run planner are plain
Python: the normal one is ``statistics.NormalDist``'s, and Student's t
is solved by Newton's method on its closed-form distribution function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ReproError

__all__ = [
    "SpeedupEstimate",
    "controlled_comparison",
    "statistical_comparison",
    "naive_comparison",
    "required_runs",
]


class ComparisonError(ReproError):
    """Bad inputs to a performance comparison."""


@dataclass(frozen=True)
class SpeedupEstimate:
    """A speedup claim: how much faster system B is than system A.

    ``low``/``high`` bound the speedup at the stated confidence;
    ``point`` is the central estimate.  ``speedup > 1`` means B is
    faster (B's runtimes are smaller).
    """

    method: str
    point: float
    low: float
    high: float
    confidence: float
    samples_a: int
    samples_b: int

    @property
    def significant(self) -> bool:
        """True when the interval excludes 1.0 (a real difference)."""
        return self.low > 1.0 or self.high < 1.0

    def claim(self) -> str:
        """The sentence the paper wants experiments to be able to state."""
        if not self.significant:
            return (
                f"with {self.confidence:.0%} confidence the systems are "
                f"statistically indistinguishable "
                f"(speedup in [{self.low:.2f}, {self.high:.2f}])"
            )
        direction = "faster" if self.point > 1 else "slower"
        return (
            f"with {self.confidence:.0%} confidence system B is "
            f"{self.point:.2f}x {direction} "
            f"(interval [{self.low:.2f}, {self.high:.2f}])"
        )


def _validate(samples: np.ndarray, label: str, minimum: int = 1) -> np.ndarray:
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < minimum:
        raise ComparisonError(
            f"{label}: need at least {minimum} samples, got {samples.size}"
        )
    if np.any(samples <= 0) or np.any(~np.isfinite(samples)):
        raise ComparisonError(f"{label}: runtimes must be positive and finite")
    return samples


def controlled_comparison(
    time_a: float, time_b: float
) -> SpeedupEstimate:
    """Comparison in a fully controlled (deterministic) environment.

    With every performance factor quantified, single runs are exact and
    the interval is degenerate.
    """
    a = _validate(np.array([time_a]), "system A")[0]
    b = _validate(np.array([time_b]), "system B")[0]
    ratio = a / b
    return SpeedupEstimate(
        method="controlled",
        point=ratio,
        low=ratio,
        high=ratio,
        confidence=1.0,
        samples_a=1,
        samples_b=1,
    )


def statistical_comparison(
    times_a: np.ndarray | list[float],
    times_b: np.ndarray | list[float],
    confidence: float = 0.95,
    resamples: int = 4000,
    seed: int = 0,
) -> SpeedupEstimate:
    """Bootstrap interval for the median-runtime ratio A/B.

    Samples should come from *distinct environments* (machines, OS
    images, days) per the statistical-reproducibility method; the
    bootstrap makes no distributional assumption, which matters because
    runtime distributions are long-tailed.
    """
    if not 0.5 < confidence < 1.0:
        raise ComparisonError(f"confidence out of range: {confidence}")
    a = _validate(times_a, "system A", minimum=3)
    b = _validate(times_b, "system B", minimum=3)
    rng = np.random.default_rng(seed)
    idx_a = rng.integers(0, a.size, size=(resamples, a.size))
    idx_b = rng.integers(0, b.size, size=(resamples, b.size))
    ratios = np.median(a[idx_a], axis=1) / np.median(b[idx_b], axis=1)
    alpha = 1.0 - confidence
    low, high = np.quantile(ratios, [alpha / 2, 1 - alpha / 2])
    return SpeedupEstimate(
        method="statistical-bootstrap",
        point=float(np.median(a) / np.median(b)),
        low=float(low),
        high=float(high),
        confidence=confidence,
        samples_a=int(a.size),
        samples_b=int(b.size),
    )


def naive_comparison(
    times_a: np.ndarray | list[float], times_b: np.ndarray | list[float]
) -> SpeedupEstimate:
    """The field's common practice: same machine, ~10 runs, mean ratio.

    Provided so the gap between it and a defensible claim is measurable:
    the returned interval is a plain t-based CI on the mean ratio and is
    labeled as such.
    """
    a = _validate(times_a, "system A", minimum=2)
    b = _validate(times_b, "system B", minimum=2)
    point = float(np.mean(a) / np.mean(b))
    # Delta-method standard error of a ratio of means.
    se = point * np.sqrt(
        (np.std(a, ddof=1) / np.mean(a)) ** 2 / a.size
        + (np.std(b, ddof=1) / np.mean(b)) ** 2 / b.size
    )
    margin = _t_quantile(0.975, min(a.size, b.size) - 1) * se
    return SpeedupEstimate(
        method="naive-mean-ratio",
        point=point,
        low=float(point - margin),
        high=float(point + margin),
        confidence=0.95,
        samples_a=int(a.size),
        samples_b=int(b.size),
    )


def required_runs(
    cov: float, detectable_effect: float, confidence: float = 0.95, power: float = 0.8
) -> int:
    """Runs per system needed to resolve *detectable_effect* (fractional
    difference in means) at the given run-to-run coefficient of variation.

    Standard two-sample normal-approximation power calculation — the
    planning number an experiment's ``vars.yml`` should justify its
    ``runs:`` with.
    """
    from statistics import NormalDist  # it imports fractions and decimal

    if cov <= 0 or detectable_effect <= 0:
        raise ComparisonError("cov and detectable_effect must be positive")
    if not (0.5 < confidence < 1.0 and 0.5 <= power < 1.0):
        raise ComparisonError("confidence in (0.5, 1), power in [0.5, 1)")
    z_alpha = NormalDist().inv_cdf(1 - (1 - confidence) / 2)
    z_beta = NormalDist().inv_cdf(power)
    n = 2.0 * ((z_alpha + z_beta) * cov / detectable_effect) ** 2
    return int(np.ceil(n))


def _t_quantile(p: float, df: int) -> float:
    """The *p* quantile (``0.5 < p < 1``) of Student's t with integer *df*.

    Newton's method on the closed-form central probability
    ``P(|T| <= t)`` (Abramowitz & Stegun 26.7.3-4), taken as a function
    of ``theta = atan(t / sqrt(df))``.  There its derivative is a
    constant times ``cos(theta) ** (df - 1)``, so it is concave, and
    Newton started below the root, at the normal quantile, climbs to it
    without overshooting.
    """
    from statistics import NormalDist

    target = 2 * p - 1
    # The derivative's constant: 2 Gamma((df + 1) / 2) / (sqrt(pi) Gamma(df / 2)).
    scale = 2 * math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2))
    scale /= math.sqrt(math.pi)
    theta = math.atan(NormalDist().inv_cdf(p) / math.sqrt(df))
    while True:
        slope = scale * math.cos(theta) ** (df - 1)
        step = (target - _t_central(theta, df)) / slope
        theta += step
        if step <= 1e-15 * theta:
            return math.sqrt(df) * math.tan(theta)


def _t_central(theta: float, df: int) -> float:
    """``P(|T| <= sqrt(df) * tan(theta))`` for Student's t with integer *df*."""
    odd = df % 2
    sin2 = math.sin(theta) ** 2
    term = math.cos(theta) if odd else 1.0
    terms = []
    for j in range(1, df // 2 + 1):
        terms.append(term)
        # times cos(theta) ** 2, as 1 - sin2: a rounded cos(theta) ** 2
        # would put the same relative error in every power of it.
        term *= (2 * j - 1 + odd) / (2 * j + odd)
        term -= term * sin2
    series = math.sin(theta) * math.fsum(terms)
    return 2 / math.pi * (theta + series) if odd else series

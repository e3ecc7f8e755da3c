"""Pluggable performance-degradation detectors.

The paper says performance-regression testing "is usually an ad-hoc
activity but can be automated ... using statistical techniques"; this
module is the statistical half of that claim, grounded in Perun's
``perun/check`` method catalogue.  Each detector compares a baseline
sample series against a candidate series for one metric and returns a
:class:`Degradation` — a graded verdict (degradation / maybe /
no-change / optimization) with a confidence rating — instead of a bare
boolean, so consumers (the CI gate, Aver's ``no_regression``, ``popper
perf``) can apply their own severity policy.

The three implementations:

* :class:`AverageAmountDetector` — Perun's average-amount threshold,
  hardened with a Mann-Whitney U significance test: the median ratio
  must exceed the threshold *and* the distribution shift must be
  statistically significant.
* :class:`IntegralDetector` — Perun's integral comparison: the area
  under the two best-fit curves, normalized to a mean height, compared
  against the threshold.
* :class:`ExclusiveTimeOutliersDetector` — Perun's exclusive-time
  outliers: Tukey fences fitted on the baseline, classifying by how
  much of the candidate series escapes them (a tail-latency regression
  the location-based detectors can miss).
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass
from enum import Enum
from typing import Protocol, runtime_checkable

import numpy as np

from repro.common.errors import CheckError

__all__ = [
    "PerformanceChange",
    "Degradation",
    "Detector",
    "AverageAmountDetector",
    "IntegralDetector",
    "ExclusiveTimeOutliersDetector",
    "default_detectors",
]


class PerformanceChange(str, Enum):
    """Graded verdict vocabulary (Perun's ``PerformanceChange``)."""

    DEGRADATION = "degradation"
    MAYBE_DEGRADATION = "maybe-degradation"
    NO_CHANGE = "no-change"
    MAYBE_OPTIMIZATION = "maybe-optimization"
    OPTIMIZATION = "optimization"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Degradation:
    """One detector's verdict on one metric.

    ``rate`` is the relative change of the detector's location estimate
    (``+0.30`` = 30 % slower); ``confidence`` is in ``[0, 1]`` and its
    meaning is named by ``confidence_kind`` (``p_value`` confidence for
    the significance-tested detector, ``integral_ratio`` for the integral
    detector, ``outlier_fraction`` for the fence detector) — see
    ``docs/regression.md`` for the exact semantics per detector.
    """

    metric: str
    detector: str
    change: PerformanceChange
    from_value: float = 0.0
    to_value: float = 0.0
    rate: float = 0.0
    confidence: float = 0.0
    confidence_kind: str = ""
    detail: str = ""

    @property
    def regressed(self) -> bool:
        return self.change is PerformanceChange.DEGRADATION

    @property
    def suspicious(self) -> bool:
        return self.change in (
            PerformanceChange.DEGRADATION,
            PerformanceChange.MAYBE_DEGRADATION,
        )

    def __str__(self) -> str:
        return (
            f"{self.metric}: {self.change.value} [{self.detector}] "
            f"rate={self.rate:+.1%} confidence={self.confidence:.2f}"
            f" ({self.confidence_kind})"
        )


@runtime_checkable
class Detector(Protocol):
    """The pluggable-detector protocol: one verdict per series pair."""

    name: str

    def detect(
        self,
        baseline: np.ndarray | list[float],
        current: np.ndarray | list[float],
        metric: str = "runtime",
    ) -> Degradation:
        ...


class _BaseDetector:
    """Shared validation and classification for the concrete detectors."""

    name = "base"

    def __init__(
        self,
        threshold: float = 0.10,
        higher_is_worse: bool = True,
        min_samples: int = 3,
    ) -> None:
        if threshold <= 0:
            raise CheckError("detector threshold must be positive")
        if min_samples < 2:
            raise CheckError("detectors need min_samples >= 2")
        self.threshold = threshold
        self.higher_is_worse = higher_is_worse
        self.min_samples = min_samples

    def _validate(
        self, baseline, current
    ) -> tuple[np.ndarray, np.ndarray]:
        baseline = np.asarray(baseline, dtype=np.float64)
        current = np.asarray(current, dtype=np.float64)
        if baseline.size < self.min_samples or current.size < self.min_samples:
            raise CheckError(
                f"{self.name}: need >= {self.min_samples} samples on each "
                f"side (got {baseline.size}/{current.size})"
            )
        if np.any(~np.isfinite(baseline)) or np.any(~np.isfinite(current)):
            raise CheckError(f"{self.name}: samples must be finite")
        if np.any(baseline <= 0) or np.any(current <= 0):
            raise CheckError(f"{self.name}: samples must be positive")
        return baseline, current

    def _effect(self, from_value: float, to_value: float) -> float:
        """Signed badness: positive = worse, in relative units."""
        rate = (to_value - from_value) / from_value if from_value else 0.0
        return rate if self.higher_is_worse else -rate

    def _classify(self, effect: float, certain: bool = True) -> PerformanceChange:
        """Threshold bands → graded verdict.

        Beyond the threshold with a *certain* signal is a firm verdict;
        beyond it without certainty, or beyond half the threshold with
        certainty, is a "maybe".
        """
        for sign, firm, maybe in (
            (1.0, PerformanceChange.DEGRADATION, PerformanceChange.MAYBE_DEGRADATION),
            (-1.0, PerformanceChange.OPTIMIZATION, PerformanceChange.MAYBE_OPTIMIZATION),
        ):
            signed = effect * sign
            if signed > self.threshold:
                return firm if certain else maybe
            if signed > self.threshold / 2 and certain:
                return maybe
        return PerformanceChange.NO_CHANGE


class AverageAmountDetector(_BaseDetector):
    """Median-ratio threshold guarded by a Mann-Whitney U test.

    This is the detector behind the original CI gate: a regression is
    firm only when BOTH hold — the median slowdown exceeds the
    threshold, and the distribution shift is statistically significant
    — protecting against both "tiny but significant" and "large but
    noise" false alarms.  Confidence is ``1 - p``, where p is the
    one-sided Mann-Whitney U p-value in the direction the medians moved:
    exact for small samples without ties, from the normal approximation
    otherwise (see :func:`_mann_whitney_p`).
    """

    name = "average-amount"

    def __init__(
        self,
        threshold: float = 0.10,
        alpha: float = 0.05,
        higher_is_worse: bool = True,
        min_samples: int = 3,
    ) -> None:
        super().__init__(threshold, higher_is_worse, min_samples)
        if not 0 < alpha < 1:
            raise CheckError("alpha must be in (0, 1)")
        self.alpha = alpha

    def detect(self, baseline, current, metric: str = "runtime") -> Degradation:
        baseline, current = self._validate(baseline, current)
        from_value = float(np.median(baseline))
        to_value = float(np.median(current))
        rate = (to_value - from_value) / from_value
        effect = self._effect(from_value, to_value)

        if np.all(baseline == baseline[0]) and np.all(current == current[0]):
            # Degenerate zero-variance case: decide on effect size alone,
            # so that a zero-variance change in either direction scores.
            p_value = 1.0 if effect == 0 else 0.0
        else:
            # One-sided, in the direction the medians moved: a slowdown
            # is tested for "current greater" when higher is worse.
            greater = self.higher_is_worse != (effect < 0)
            p_value = _mann_whitney_p(current.tolist(), baseline.tolist(), greater)

        significant = p_value < self.alpha
        change = self._classify(effect, certain=significant)
        if change is PerformanceChange.NO_CHANGE and abs(effect) > self.threshold:
            # Large but not significant: worth a second look, not a page.
            change = (
                PerformanceChange.MAYBE_DEGRADATION
                if effect > 0
                else PerformanceChange.MAYBE_OPTIMIZATION
            )
        return Degradation(
            metric=metric,
            detector=self.name,
            change=change,
            from_value=from_value,
            to_value=to_value,
            rate=rate,
            confidence=max(0.0, 1.0 - p_value),
            confidence_kind="p_value",
            detail=f"median {from_value:.4g} -> {to_value:.4g}, p={p_value:.4f}",
        )


def _mann_whitney_p(x: list[float], y: list[float], greater: bool) -> float:
    """One-sided Mann-Whitney U p-value that *x* is stochastically greater
    (or, with ``greater=False``, less) than *y*.  The values must not
    all be equal.

    This is ``scipy.stats.mannwhitneyu(x, y, alternative=...)`` with its
    default ``method="auto"``: the exact null distribution of U unless
    both samples have more than 8 values or any value ties, and
    otherwise the normal approximation with tie and continuity
    correction.  The exact branch takes scipy's float steps (each count
    divided by the binomial, a running sum, the shorter tail), so its
    p-value is the same float: where p equals alpha exactly, at sizes
    (3, 9), scipy's 0.049999999999999996 is significant and a correctly
    rounded 0.05 would not be.
    """
    n1, n2 = len(x), len(y)
    n = n1 + n2
    ties = collections.Counter(x + y)
    rank_of, below = {}, 0
    for value in sorted(ties):
        rank_of[value] = below + (ties[value] + 1) / 2  # the average rank
        below += ties[value]
    u1 = sum(rank_of[value] for value in x) - n1 * (n1 + 1) / 2
    u = u1 if greater else n1 * n2 - u1
    tie_term = sum(t**3 - t for t in ties.values())

    if (n1 > 8 and n2 > 8) or tie_term:
        s = math.sqrt(n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1))))
        z = (u - n1 * n2 / 2 - 0.5) / s
        p = 0.5 * math.erfc(z / math.sqrt(2))
    else:
        k = int(u)
        upper = n1 * n2 - k
        counts = _u_counts(min(n1, n2), max(n1, n2), min(k, upper))
        total = float(math.comb(n, n1))
        cdf = 0.0
        for count in counts:
            cdf += count / total
        p = 1.0 - cdf + counts[k] / total if k < upper else cdf
    return min(1.0, max(0.0, p))


def _u_counts(m: int, n: int, upto: int) -> list[int]:
    """How many ways U can take each value 0..*upto* for sizes *m*, *n*.

    These are the first coefficients of the Gaussian binomial
    ``prod((1 - q**(n + i)) / (1 - q**i) for i in 1..m)``; each factor
    changes a coefficient only from lower ones, so the product can stop
    at ``q**upto``.
    """
    counts = [1] + [0] * upto
    for i in range(1, m + 1):
        for j in range(upto, n + i - 1, -1):
            counts[j] -= counts[j - n - i]
        for j in range(i, upto + 1):
            counts[j] += counts[j - i]
    return counts


class IntegralDetector(_BaseDetector):
    """Compare the integrals (mean heights) of the two best-fit curves.

    The integral folds the whole curve into one number, so it reacts to
    slowdowns that moved mass anywhere along the run, not only at the
    median.  Confidence scales with how far past the threshold the
    integral moved (``1.0`` at twice the threshold).
    """

    name = "integral"

    def detect(self, baseline, current, metric: str = "runtime") -> Degradation:
        from repro.stats.models import fit_best_model, model_integral

        baseline, current = self._validate(baseline, current)
        base_fit = fit_best_model(np.arange(baseline.size), baseline)
        curr_fit = fit_best_model(np.arange(current.size), current)
        from_value = model_integral(base_fit)
        to_value = model_integral(curr_fit)
        rate = (to_value - from_value) / from_value if from_value else 0.0
        effect = self._effect(from_value, to_value)
        change = self._classify(effect, certain=True)
        return Degradation(
            metric=metric,
            detector=self.name,
            change=change,
            from_value=from_value,
            to_value=to_value,
            rate=rate,
            confidence=min(1.0, abs(effect) / (2 * self.threshold)),
            confidence_kind="integral_ratio",
            detail=f"integral {from_value:.4g} -> {to_value:.4g}",
        )


class ExclusiveTimeOutliersDetector(_BaseDetector):
    """Tukey fences from the baseline, applied to the candidate.

    Fences at ``Q1 - k*IQR`` / ``Q3 + k*IQR`` are fitted on the
    baseline; the verdict grades by the fraction of candidate samples
    escaping them (above the upper fence = worse when higher is worse).
    This catches tail regressions — a stage that is usually fast but now
    sometimes stalls — that median- and integral-based detectors absorb.
    Confidence is the escaping fraction itself.
    """

    name = "exclusive-time-outliers"

    def __init__(
        self,
        threshold: float = 0.10,
        higher_is_worse: bool = True,
        min_samples: int = 3,
        fence: float = 1.5,
        firm_fraction: float = 0.5,
        maybe_fraction: float = 0.25,
    ) -> None:
        super().__init__(threshold, higher_is_worse, min_samples)
        if fence <= 0:
            raise CheckError("fence multiplier must be positive")
        if not 0 < maybe_fraction <= firm_fraction <= 1:
            raise CheckError("need 0 < maybe_fraction <= firm_fraction <= 1")
        self.fence = fence
        self.firm_fraction = firm_fraction
        self.maybe_fraction = maybe_fraction

    def detect(self, baseline, current, metric: str = "runtime") -> Degradation:
        baseline, current = self._validate(baseline, current)
        q1, q3 = np.percentile(baseline, [25, 75])
        iqr = float(q3 - q1)
        if iqr == 0.0:
            # Zero-variance baseline: fence by a relative margin instead.
            margin = abs(float(q3)) * self.threshold / 2
            lo, hi = float(q1) - margin, float(q3) + margin
        else:
            lo, hi = float(q1) - self.fence * iqr, float(q3) + self.fence * iqr
        worse = current > hi if self.higher_is_worse else current < lo
        better = current < lo if self.higher_is_worse else current > hi
        worse_frac = float(np.mean(worse))
        better_frac = float(np.mean(better))
        from_value = float(np.median(baseline))
        to_value = float(np.median(current))

        if worse_frac >= self.firm_fraction:
            change = PerformanceChange.DEGRADATION
        elif worse_frac >= self.maybe_fraction:
            change = PerformanceChange.MAYBE_DEGRADATION
        elif better_frac >= self.firm_fraction:
            change = PerformanceChange.OPTIMIZATION
        elif better_frac >= self.maybe_fraction:
            change = PerformanceChange.MAYBE_OPTIMIZATION
        else:
            change = PerformanceChange.NO_CHANGE
        confidence = max(worse_frac, better_frac)
        return Degradation(
            metric=metric,
            detector=self.name,
            change=change,
            from_value=from_value,
            to_value=to_value,
            rate=(to_value - from_value) / from_value if from_value else 0.0,
            confidence=confidence,
            confidence_kind="outlier_fraction",
            detail=(
                f"{worse_frac:.0%} above / {better_frac:.0%} below "
                f"fences [{lo:.4g}, {hi:.4g}]"
            ),
        )


def default_detectors(
    threshold: float = 0.10,
    alpha: float = 0.05,
    higher_is_worse: bool = True,
    min_samples: int = 3,
) -> list[Detector]:
    """The standard three-detector battery, shared by every consumer."""
    return [
        AverageAmountDetector(
            threshold=threshold,
            alpha=alpha,
            higher_is_worse=higher_is_worse,
            min_samples=min_samples,
        ),
        IntegralDetector(
            threshold=threshold,
            higher_is_worse=higher_is_worse,
            min_samples=min_samples,
        ),
        ExclusiveTimeOutliersDetector(
            threshold=threshold,
            higher_is_worse=higher_is_worse,
            min_samples=min_samples,
        ),
    ]

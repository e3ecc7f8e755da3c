"""Each detector judged on synthetic degrading / noisy / improving
histories — the acceptance criterion for the ``repro.check`` suite."""

import pytest

from repro.check.detectors import (
    AverageAmountDetector,
    Degradation,
    Detector,
    ExclusiveTimeOutliersDetector,
    IntegralDetector,
    PerformanceChange,
    default_detectors,
)
from repro.common.errors import CheckError
from repro.common.rng import derive_rng


def noisy(mean, n=12, cov=0.03, label="x"):
    """A stationary series around *mean* with mild multiplicative noise."""
    rng = derive_rng(7, "check-detectors", label, str(mean))
    return mean * (1.0 + cov * rng.standard_normal(n))


DETECTORS = [
    AverageAmountDetector,
    IntegralDetector,
    ExclusiveTimeOutliersDetector,
]


@pytest.mark.parametrize("cls", DETECTORS)
class TestEveryDetector:
    def test_satisfies_protocol(self, cls):
        assert isinstance(cls(), Detector)

    def test_degrading_history_is_flagged(self, cls):
        """A 40 % slowdown must at least raise a maybe on every detector."""
        verdict = cls(threshold=0.10).detect(
            noisy(10.0, label="base"), noisy(14.0, label="slow"), metric="m"
        )
        assert verdict.suspicious
        assert verdict.rate > 0.2
        assert verdict.metric == "m"
        assert verdict.detector == cls.name

    def test_noisy_history_is_clean(self, cls):
        """Identical distributions must never be a firm degradation."""
        verdict = cls(threshold=0.10).detect(
            noisy(10.0, label="a"), noisy(10.0, label="b")
        )
        assert not verdict.regressed

    def test_improving_history_is_not_a_degradation(self, cls):
        verdict = cls(threshold=0.10).detect(
            noisy(10.0, label="before"), noisy(6.5, label="after")
        )
        assert verdict.change in (
            PerformanceChange.OPTIMIZATION,
            PerformanceChange.MAYBE_OPTIMIZATION,
            PerformanceChange.NO_CHANGE,
        )
        assert not verdict.suspicious

    def test_too_few_samples_raise(self, cls):
        with pytest.raises(CheckError):
            cls(min_samples=3).detect([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_nonpositive_samples_raise(self, cls):
        with pytest.raises(CheckError):
            cls().detect([1.0, 0.0, 2.0], [1.0, 2.0, 3.0])

    def test_nonfinite_samples_raise(self, cls):
        with pytest.raises(CheckError):
            cls().detect([1.0, float("nan"), 2.0], [1.0, 2.0, 3.0])

    def test_parameter_validation(self, cls):
        with pytest.raises(CheckError):
            cls(threshold=0.0)
        with pytest.raises(CheckError):
            cls(min_samples=1)

    def test_confidence_in_unit_interval(self, cls):
        for candidate_mean in (10.0, 11.0, 14.0):
            verdict = cls().detect(
                noisy(10.0, label="conf-b"),
                noisy(candidate_mean, label=f"conf-{candidate_mean}"),
            )
            assert 0.0 <= verdict.confidence <= 1.0


class TestAverageAmount:
    def test_firm_needs_effect_and_significance(self):
        """The historical gate contract: threshold AND Mann-Whitney."""
        det = AverageAmountDetector(threshold=0.10)
        firm = det.detect(noisy(10.0, label="g1"), noisy(13.0, label="g2"))
        assert firm.change is PerformanceChange.DEGRADATION
        assert firm.confidence_kind == "p_value"
        assert firm.confidence > 0.9

    def test_small_shift_below_threshold_passes(self):
        det = AverageAmountDetector(threshold=0.10)
        verdict = det.detect(noisy(10.0, label="s1"), noisy(10.3, label="s2"))
        assert not verdict.regressed

    def test_zero_variance_decided_by_effect(self):
        det = AverageAmountDetector(threshold=0.10)
        assert det.detect([10.0] * 5, [14.0] * 5).regressed
        assert not det.detect([10.0] * 5, [10.0] * 5).regressed
        improved = det.detect([10.0] * 5, [6.0] * 5)
        assert improved.change is PerformanceChange.OPTIMIZATION

    def test_lower_is_worse_mode(self):
        det = AverageAmountDetector(threshold=0.10, higher_is_worse=False)
        verdict = det.detect(
            noisy(100.0, label="tp1"), noisy(70.0, label="tp2")
        )
        assert verdict.regressed

    @pytest.mark.parametrize("higher_is_worse", [True, False])
    def test_an_improvement_is_tested_in_its_own_direction(self, higher_is_worse):
        """The one-sided test follows the medians, so a clear
        improvement is as significant as a clear slowdown."""
        before, after = noisy(10.0, label="i1"), noisy(6.5, label="i2")
        if not higher_is_worse:
            before, after = after, before
        verdict = AverageAmountDetector(higher_is_worse=higher_is_worse).detect(before, after)
        assert verdict.change is PerformanceChange.OPTIMIZATION
        assert verdict.confidence > 0.99

    def test_alpha_validation(self):
        with pytest.raises(CheckError):
            AverageAmountDetector(alpha=2.0)


class TestIntegral:
    def test_confidence_scales_with_effect(self):
        det = IntegralDetector(threshold=0.10)
        small = det.detect(noisy(10.0, label="i1"), noisy(11.0, label="i2"))
        large = det.detect(noisy(10.0, label="i1"), noisy(14.0, label="i3"))
        assert large.confidence > small.confidence
        assert large.confidence_kind == "integral_ratio"


class TestExclusiveTimeOutliers:
    def test_tail_regression_caught(self):
        """Half the candidate samples stall: medians barely move, but the
        fence detector fires."""
        baseline = noisy(10.0, n=12, cov=0.01, label="t1")
        tail = list(noisy(10.0, n=6, cov=0.01, label="t2")) + [30.0] * 6
        verdict = ExclusiveTimeOutliersDetector().detect(baseline, tail)
        assert verdict.regressed
        assert verdict.confidence_kind == "outlier_fraction"
        assert verdict.confidence >= 0.5

    def test_quarter_escape_is_a_maybe(self):
        baseline = noisy(10.0, n=12, cov=0.01, label="q1")
        tail = list(noisy(10.0, n=9, cov=0.01, label="q2")) + [30.0] * 3
        verdict = ExclusiveTimeOutliersDetector().detect(baseline, tail)
        assert verdict.change is PerformanceChange.MAYBE_DEGRADATION

    def test_zero_iqr_baseline_uses_relative_margin(self):
        verdict = ExclusiveTimeOutliersDetector(threshold=0.10).detect(
            [10.0] * 6, [11.0] * 6
        )
        assert verdict.regressed

    def test_fence_parameter_validation(self):
        with pytest.raises(CheckError):
            ExclusiveTimeOutliersDetector(fence=0.0)
        with pytest.raises(CheckError):
            ExclusiveTimeOutliersDetector(maybe_fraction=0.8, firm_fraction=0.5)


class TestDegradationVerdict:
    def test_str_names_metric_detector_and_confidence(self):
        verdict = Degradation(
            metric="one/stage/run",
            detector="average-amount",
            change=PerformanceChange.DEGRADATION,
            rate=0.31,
            confidence=0.97,
            confidence_kind="p_value",
        )
        text = str(verdict)
        assert "one/stage/run" in text
        assert "average-amount" in text
        assert "+31.0%" in text
        assert "0.97" in text

    def test_properties(self):
        firm = Degradation("m", "d", PerformanceChange.DEGRADATION)
        maybe = Degradation("m", "d", PerformanceChange.MAYBE_DEGRADATION)
        clean = Degradation("m", "d", PerformanceChange.NO_CHANGE)
        assert firm.regressed and firm.suspicious
        assert not maybe.regressed and maybe.suspicious
        assert not clean.regressed and not clean.suspicious


def test_default_detectors_is_the_three_battery():
    battery = default_detectors(threshold=0.2)
    assert [d.name for d in battery] == [
        "average-amount",
        "integral",
        "exclusive-time-outliers",
    ]
    assert all(d.threshold == 0.2 for d in battery)

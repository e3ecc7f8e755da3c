"""The detector suite: one battery of detectors, many consumers.

The CI regression gate, Aver's ``no_regression(metric)`` builtin and the
``popper perf`` subcommand all answer the same question — "did this
metric degrade between two sample series?" — so they all route through
one :class:`DetectorSuite` rather than each keeping a private threshold.
The suite runs every registered detector over a pair of series (or over
every shared series of two :class:`~repro.check.profiles.Profile`\\ s)
and collects the graded :class:`~repro.check.detectors.Degradation`
verdicts; policy (fail the build? fail the assertion? just print?) stays
with the consumer.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.check.detectors import (
    Degradation,
    Detector,
    PerformanceChange,
    default_detectors,
)
from repro.common.errors import CheckError
from repro.common.tables import MetricsTable

__all__ = ["DetectorSuite", "default_suite"]


class DetectorSuite:
    """Run a battery of detectors over sample series and collect verdicts."""

    def __init__(self, detectors: Sequence[Detector]) -> None:
        if not detectors:
            raise CheckError("a detector suite needs at least one detector")
        names = [d.name for d in detectors]
        if len(set(names)) != len(names):
            raise CheckError(f"duplicate detector names in suite: {names}")
        self.detectors = list(detectors)

    def compare_samples(
        self,
        baseline: Sequence[float],
        current: Sequence[float],
        metric: str = "runtime",
    ) -> list[Degradation]:
        """Every detector's verdict on one baseline/current pair.

        A detector that cannot judge the pair (too few samples for its
        method, degenerate input) contributes an ``UNKNOWN`` verdict
        carrying the reason instead of sinking the whole battery.
        """
        verdicts: list[Degradation] = []
        for detector in self.detectors:
            try:
                verdicts.append(detector.detect(baseline, current, metric=metric))
            except CheckError as exc:
                verdicts.append(
                    Degradation(
                        metric=metric,
                        detector=detector.name,
                        change=PerformanceChange.UNKNOWN,
                        detail=str(exc),
                    )
                )
        return verdicts

    def compare_series(
        self,
        baseline: Mapping[str, Sequence[float]],
        current: Mapping[str, Sequence[float]],
    ) -> list[Degradation]:
        """Verdicts over every series key present on *both* sides.

        Keys only one side has (a stage added or removed by the change
        under test) are reported as ``UNKNOWN`` so they do not silently
        vanish from the comparison.
        """
        verdicts: list[Degradation] = []
        shared = sorted(set(baseline) & set(current))
        for key in shared:
            verdicts.extend(
                self.compare_samples(baseline[key], current[key], metric=key)
            )
        for key in sorted(set(baseline) ^ set(current)):
            side = "baseline" if key in baseline else "current"
            verdicts.append(
                Degradation(
                    metric=key,
                    detector="suite",
                    change=PerformanceChange.UNKNOWN,
                    detail=f"series only present in {side} profile",
                )
            )
        return verdicts

    @staticmethod
    def regressed(verdicts: Iterable[Degradation]) -> bool:
        """Consumer policy helper: any firm degradation in the batch?"""
        return any(v.change is PerformanceChange.DEGRADATION for v in verdicts)

    @staticmethod
    def to_table(verdicts: Iterable[Degradation]) -> MetricsTable:
        """Verdicts as a results table (feeds ``popper perf`` rendering)."""
        table = MetricsTable(
            [
                "metric",
                "detector",
                "change",
                "rate",
                "confidence",
                "confidence_kind",
                "detail",
            ]
        )
        for v in verdicts:
            table.append(
                {
                    "metric": v.metric,
                    "detector": v.detector,
                    "change": v.change.value,
                    "rate": round(v.rate, 4),
                    "confidence": round(v.confidence, 4),
                    "confidence_kind": v.confidence_kind,
                    "detail": v.detail,
                }
            )
        return table


def default_suite(
    threshold: float = 0.10,
    alpha: float = 0.05,
    higher_is_worse: bool = True,
    min_samples: int = 3,
) -> DetectorSuite:
    """The standard three-detector suite every consumer shares."""
    return DetectorSuite(
        default_detectors(
            threshold=threshold,
            alpha=alpha,
            higher_is_worse=higher_is_worse,
            min_samples=min_samples,
        )
    )

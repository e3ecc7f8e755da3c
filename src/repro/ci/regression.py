"""Automated performance-regression testing — the CI-facing adapter.

The paper calls out that performance regression testing "is usually an
ad-hoc activity but can be automated ... using statistical techniques".
The statistics now live in :mod:`repro.check` (a pluggable detector
suite shared with Aver's ``no_regression`` builtin and ``popper perf``);
this module keeps the CI-shaped surface on top of it:

* :class:`RegressionGate` — the historical pass/fail gate.  Its verdict
  is exactly the average-amount detector's (median-ratio threshold plus
  Mann-Whitney U significance, both required), so CI semantics are
  unchanged; the full suite's graded verdicts ride along on the report
  for richer output.
* :class:`PerformanceHistory` — the flat rolling-window baseline,
  superseded by the commit-attached
  :class:`~repro.check.profiles.ProfileHistory` but kept for gate-only
  consumers, now with durable persistence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import json
import numpy as np

from repro.check.detectors import Degradation, PerformanceChange
from repro.check.suite import DetectorSuite, default_suite
from repro.common.errors import CIError
from repro.common.fsutil import atomic_write

__all__ = ["RegressionReport", "RegressionGate", "PerformanceHistory"]

_HISTORY_FORMAT_VERSION = 1


@dataclass(frozen=True)
class RegressionReport:
    """Verdict on one metric comparison.

    ``regressed``/``ratio``/``p_value`` keep the historical gate
    meaning; ``degradations`` carries every detector's graded verdict
    and ``confidence`` the gating detector's confidence rating.
    """

    metric: str
    regressed: bool
    ratio: float          # current median / baseline median
    p_value: float
    baseline_median: float
    current_median: float
    threshold: float
    confidence: float = 0.0
    degradations: tuple[Degradation, ...] = ()

    def __str__(self) -> str:
        verdict = "REGRESSION" if self.regressed else "ok"
        return (
            f"{self.metric}: {verdict} ratio={self.ratio:.3f} "
            f"(p={self.p_value:.4f}, threshold=+{self.threshold:.0%})"
        )

    def describe(self) -> str:
        """The one-line verdict plus each detector's graded opinion."""
        lines = [str(self)]
        lines.extend(f"  {d}" for d in self.degradations)
        return "\n".join(lines)


class RegressionGate:
    """Detects slowdowns beyond *threshold* with significance *alpha*.

    A thin adapter over :func:`repro.check.suite.default_suite`: the
    pass/fail verdict is the average-amount detector's firm-degradation
    classification (a regression is flagged only when BOTH hold — the
    median slowdown exceeds the threshold, and the distribution shift
    is statistically significant), while the remaining detectors
    contribute advisory verdicts on the report.
    """

    def __init__(
        self,
        threshold: float = 0.10,
        alpha: float = 0.05,
        higher_is_worse: bool = True,
        min_samples: int = 3,
    ) -> None:
        if threshold <= 0:
            raise CIError("regression threshold must be positive")
        if not 0 < alpha < 1:
            raise CIError("alpha must be in (0, 1)")
        self.threshold = threshold
        self.alpha = alpha
        self.higher_is_worse = higher_is_worse
        self.min_samples = min_samples
        self.suite: DetectorSuite = default_suite(
            threshold=threshold,
            alpha=alpha,
            higher_is_worse=higher_is_worse,
            min_samples=min_samples,
        )

    def check(
        self,
        baseline: np.ndarray | list[float],
        current: np.ndarray | list[float],
        metric: str = "runtime",
    ) -> RegressionReport:
        """Compare *current* samples against *baseline* samples."""
        baseline = np.asarray(baseline, dtype=np.float64)
        current = np.asarray(current, dtype=np.float64)
        if baseline.size < self.min_samples or current.size < self.min_samples:
            raise CIError(
                f"need >= {self.min_samples} samples on each side "
                f"(got {baseline.size}/{current.size})"
            )
        if np.any(baseline <= 0) or np.any(current <= 0):
            raise CIError("runtime samples must be positive")

        verdicts = self.suite.compare_samples(baseline, current, metric=metric)
        gating = next(v for v in verdicts if v.detector == "average-amount")
        if gating.change is PerformanceChange.UNKNOWN:
            raise CIError(f"regression gate could not judge: {gating.detail}")

        baseline_median = float(np.median(baseline))
        current_median = float(np.median(current))
        return RegressionReport(
            metric=metric,
            regressed=gating.change is PerformanceChange.DEGRADATION,
            ratio=current_median / baseline_median,
            p_value=max(0.0, 1.0 - gating.confidence),
            baseline_median=baseline_median,
            current_median=current_median,
            threshold=self.threshold,
            confidence=gating.confidence,
            degradations=tuple(verdicts),
        )


@dataclass
class PerformanceHistory:
    """Per-commit metric samples, the stream the gate watches.

    Keeps a rolling baseline window of the last *window* healthy commits;
    a new commit is judged against the pooled baseline samples.

    Superseded by :class:`repro.check.profiles.ProfileHistory` (which
    attaches profiles to the actual commit graph) but retained for
    gate-only consumers; :meth:`save`/:meth:`load` persist the window
    under the durable-write contract.
    """

    metric: str = "runtime"
    window: int = 5
    gate: RegressionGate = field(default_factory=RegressionGate)
    _commits: list[tuple[str, np.ndarray]] = field(default_factory=list)

    def record(self, commit: str, samples: np.ndarray | list[float]) -> None:
        """Accept a healthy commit's samples into the baseline window."""
        self._commits.append((commit, np.asarray(samples, dtype=np.float64)))
        if len(self._commits) > self.window:
            self._commits.pop(0)

    @property
    def baseline(self) -> np.ndarray:
        if not self._commits:
            raise CIError("no baseline recorded yet")
        return np.concatenate([s for _, s in self._commits])

    def judge(
        self, commit: str, samples: np.ndarray | list[float]
    ) -> RegressionReport:
        """Gate a candidate commit; record it as baseline iff it passes."""
        report = self.gate.check(self.baseline, samples, metric=self.metric)
        if not report.regressed:
            self.record(commit, samples)
        return report

    # -- persistence -------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist the window atomically and durably (crash leaves the
        old file or the new one, never a torn mix)."""
        payload = {
            "version": _HISTORY_FORMAT_VERSION,
            "metric": self.metric,
            "window": self.window,
            "commits": [
                [commit, [float(v) for v in samples]]
                for commit, samples in self._commits
            ],
        }
        data = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        atomic_write(path, data.encode("utf-8"), durable=True)

    @classmethod
    def load(
        cls, path: str | Path, gate: RegressionGate | None = None
    ) -> "PerformanceHistory":
        """Load a window in the versioned format :meth:`save` writes."""
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CIError(f"unreadable performance history at {path}: {exc}") from exc
        if not isinstance(payload, dict) or "version" not in payload:
            raise CIError(f"malformed performance history at {path}")
        if payload["version"] != _HISTORY_FORMAT_VERSION:
            raise CIError(
                f"unsupported performance-history version: {payload['version']!r}"
            )
        history = cls(gate=gate or RegressionGate())
        history.metric = str(payload.get("metric", history.metric))
        history.window = int(payload.get("window", history.window))
        for commit, samples in payload.get("commits", []):
            try:
                history.record(str(commit), [float(v) for v in samples])
            except (TypeError, ValueError) as exc:
                raise CIError(
                    f"malformed samples for commit {commit!r} in {path}"
                ) from exc
        return history

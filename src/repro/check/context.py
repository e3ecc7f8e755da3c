"""Binding Aver's ``no_regression`` builtin to a profile history.

Aver statements are stateless — a table in, a verdict out — but "did
this metric regress?" needs *history*.  A :class:`RegressionContext`
carries that history (a baseline :class:`~repro.check.profiles.Profile`
pooled from prior commits, plus the shared
:class:`~repro.check.suite.DetectorSuite`) and exposes
``no_regression(metric)`` as a contextual Aver function: the pipeline
builds one per run and passes its :meth:`functions` mapping into
``check_all``, so validations and perf gating share one language.
The detectors, and numpy with them, are imported only when a
``no_regression`` assertion is evaluated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.aver.ast import Column, String
from repro.common.errors import AverEvalError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.detectors import Degradation
    from repro.check.profiles import Profile
    from repro.check.suite import DetectorSuite

__all__ = ["RegressionContext"]


class RegressionContext:
    """Run-scoped state behind ``no_regression(metric)``.

    *baseline* is the pooled profile of prior commits (None when the
    history is empty — first run ever, or a fresh clone), or a
    zero-argument callable that returns it: the first ``no_regression``
    evaluation calls it, once, so validations that never ask read no
    history.  *experiment* scopes series-key resolution.  With no
    baseline every ``no_regression`` assertion passes vacuously — a
    repository's first profiled run cannot regress against anything —
    and the vacuous pass is recorded in :attr:`notes` so reports can say
    so.  Without a *suite*, the first comparison builds
    ``default_suite()``.

    After evaluation, :attr:`verdicts` holds every detector verdict the
    assertions triggered, for journaling alongside the pass/fail.
    """

    def __init__(
        self,
        baseline: "Profile | Callable[[], Profile | None] | None",
        suite: "DetectorSuite | None" = None,
        experiment: str | None = None,
    ) -> None:
        self._baseline = baseline
        self.suite = suite
        self.experiment = experiment
        self.verdicts: list[Degradation] = []
        self.notes: list[str] = []

    @property
    def baseline(self) -> "Profile | None":
        """The pooled baseline, resolved on first use."""
        if callable(self._baseline):
            self._baseline = self._baseline()
        return self._baseline

    def functions(self):
        """The contextual-function mapping for the Aver evaluator."""
        return {"no_regression": self._no_regression}

    # -- the builtin ---------------------------------------------------------------
    def _no_regression(self, name: str, args: tuple, evaluator: Any) -> bool:
        if len(args) != 1:
            raise AverEvalError(f"{name}() takes 1 argument, got {len(args)}")
        arg = args[0]
        if isinstance(arg, Column):
            metric = arg.name
        elif isinstance(arg, String):
            metric = arg.value
        else:
            raise AverEvalError(
                f"{name}() takes a result column (or its name as a string)"
            )

        current = self._current_samples(metric, arg, evaluator)
        baseline = self._baseline_samples(metric)
        if baseline is None:
            self.notes.append(
                f"{name}({metric}): no baseline profile yet — vacuous pass"
            )
            return True
        from repro.check.suite import DetectorSuite, default_suite

        if self.suite is None:
            self.suite = default_suite()
        verdicts = self.suite.compare_samples(baseline, current, metric=metric)
        self.verdicts.extend(verdicts)
        return not DetectorSuite.regressed(verdicts)

    def _current_samples(self, metric: str, arg: Any, evaluator: Any) -> list[float]:
        """The candidate series: the column's values in the current group."""
        if isinstance(arg, Column):
            values = evaluator.eval(arg)
        else:
            values = evaluator.eval(Column(name=metric))
        try:
            return [float(v) for v in values]
        except (TypeError, ValueError) as exc:
            raise AverEvalError(
                f"no_regression({metric}): column is not numeric"
            ) from exc

    def _baseline_samples(self, metric: str) -> list[float] | None:
        """Resolve *metric* against the baseline profile's series keys.

        Tried in order: the exact key; the experiment-scoped results
        key; then any ``*/results/<metric>`` or ``*/stage/<metric>``
        suffix match (pooled, for histories spanning experiments).
        """
        if self.baseline is None or not self.baseline.series:
            return None
        series = self.baseline.series
        if metric in series:
            return list(series[metric])
        if self.experiment:
            scoped = f"{self.experiment}/results/{metric}"
            if scoped in series:
                return list(series[scoped])
            staged = f"{self.experiment}/stage/{metric}"
            if staged in series:
                return list(series[staged])
        pooled: list[float] = []
        for key in sorted(series):
            if key.endswith(f"/results/{metric}") or key.endswith(f"/stage/{metric}"):
                pooled.extend(series[key])
        return pooled or None

"""The perf self-check: prove the detector plumbing works.

``popper selftest`` runs it to exercise the whole degradation path
end-to-end in seconds: synthesize a two-commit history
(a stable baseline and a candidate with one injected slowdown and one
untouched metric) through a *real* :class:`ProfileHistory` on disk, run
the default detector suite across the pair, and demand that the
injected slowdown is caught while the clean metric passes.  Like the
other self-checks, it turns "the subsystem imports" into "the
subsystem detects".
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.check.detectors import PerformanceChange
from repro.check.profiles import Profile, ProfileHistory
from repro.check.suite import default_suite
from repro.common.errors import CheckError
from repro.common.rng import derive_rng

__all__ = ["perf_smoke"]


def perf_smoke(root: str | Path | None = None, samples: int = 12) -> str:
    """Run the synthetic two-commit detector check; return a summary line.

    Raises :class:`CheckError` if the injected 30 % slowdown escapes
    every detector or the untouched metric draws a firm false alarm —
    either would mean the gate is decorative.
    """
    rng = derive_rng(23, "perf-smoke")

    def noisy(mean: float) -> list[float]:
        return [float(v) for v in mean * (1.0 + 0.03 * rng.standard_normal(samples))]

    with tempfile.TemporaryDirectory(prefix="perf-smoke-") as scratch:
        history = ProfileHistory(Path(root) if root is not None else Path(scratch))
        history.attach(
            Profile(
                commit="smoke-base",
                series={
                    "smoke/stage/slowed": noisy(10.0),
                    "smoke/stage/stable": noisy(4.0),
                },
                meta={"synthetic": True},
            )
        )
        history.attach(
            Profile(
                commit="smoke-candidate",
                series={
                    "smoke/stage/slowed": noisy(13.0),  # injected 30 % slowdown
                    "smoke/stage/stable": noisy(4.0),
                },
                meta={"synthetic": True},
            )
        )
        base = history.require("smoke-base")
        candidate = history.require("smoke-candidate")
        suite = default_suite()
        verdicts = suite.compare_series(base.series, candidate.series)

    caught = [
        v
        for v in verdicts
        if v.metric.endswith("/slowed") and v.change is PerformanceChange.DEGRADATION
    ]
    false_alarms = [
        v
        for v in verdicts
        if v.metric.endswith("/stable") and v.change is PerformanceChange.DEGRADATION
    ]
    if not caught:
        raise CheckError(
            "perf smoke: injected 30% slowdown escaped every detector"
        )
    if false_alarms:
        names = ", ".join(v.detector for v in false_alarms)
        raise CheckError(f"perf smoke: false alarm on the stable metric ({names})")
    return (
        f"perf smoke ok: slowdown caught by {len(caught)}/"
        f"{len(suite.detectors)} detectors, stable metric clean"
    )

"""Degradation checking: commit-attached profiles + a detector suite.

The performance-regression subsystem the ROADMAP asks for, modeled on
Perun's ``perun/check``: :mod:`~repro.check.profiles` attaches per-stage
timing profiles to VCS commits under ``.pvcs/profiles/``;
:mod:`~repro.check.detectors` grades baseline-vs-candidate series with
three statistical methods; :mod:`~repro.check.suite` batteries them for
the three consumers (the advisory verdicts of a passed ``popper ci``
build, Aver's ``no_regression`` via :mod:`~repro.check.context`, and
the ``popper perf`` subcommand).
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "detectors": (
            "PerformanceChange",
            "Degradation",
            "Detector",
            "AverageAmountDetector",
            "IntegralDetector",
            "ExclusiveTimeOutliersDetector",
            "default_detectors",
        ),
        "suite": ("DetectorSuite", "default_suite"),
        "profiles": (
            "PROFILE_FORMAT_VERSION",
            "Profile",
            "ProfileHistory",
            "harvest_profile",
        ),
        "context": ("RegressionContext",),
        "smoke": ("perf_smoke",),
    },
)

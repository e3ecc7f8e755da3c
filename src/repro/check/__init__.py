"""Degradation checking: commit-attached profiles + a detector suite.

The performance-regression subsystem the ROADMAP asks for, modeled on
Perun's ``perun/check``: :mod:`~repro.check.profiles` attaches per-stage
timing profiles to VCS commits under ``.pvcs/profiles/``;
:mod:`~repro.check.detectors` grades baseline-vs-candidate series with
four statistical methods; :mod:`~repro.check.suite` batteries them for
the three consumers (the advisory verdicts of a passed ``popper ci``
build, Aver's ``no_regression`` via :mod:`~repro.check.context`, and
the ``popper perf`` subcommand).
"""

from repro.check.detectors import (
    AverageAmountDetector,
    BestModelDetector,
    Degradation,
    Detector,
    ExclusiveTimeOutliersDetector,
    IntegralDetector,
    PerformanceChange,
    default_detectors,
)
from repro.check.profiles import (
    PROFILE_FORMAT_VERSION,
    Profile,
    ProfileHistory,
    harvest_profile,
)
from repro.check.suite import DetectorSuite, default_suite
from repro.check.context import RegressionContext
from repro.check.smoke import perf_smoke

__all__ = [
    "PerformanceChange",
    "Degradation",
    "Detector",
    "AverageAmountDetector",
    "BestModelDetector",
    "IntegralDetector",
    "ExclusiveTimeOutliersDetector",
    "default_detectors",
    "DetectorSuite",
    "default_suite",
    "PROFILE_FORMAT_VERSION",
    "Profile",
    "ProfileHistory",
    "harvest_profile",
    "RegressionContext",
    "perf_smoke",
]

"""Continuous-integration substrate (the TravisCI substitution):
``.travis.yml`` parsing, env-matrix expansion, containerized job
execution, and build history/badges.  A passed build's advisory
degradation verdicts come from :mod:`repro.check`.
"""

from repro.ci.config import CIConfig, parse_env_line
from repro.ci.runner import (
    BuildRecord,
    BuildStatus,
    CIServer,
    ContainerExecutor,
    JobResult,
    StepResult,
)

__all__ = [
    "CIConfig",
    "parse_env_line",
    "CIServer",
    "ContainerExecutor",
    "BuildRecord",
    "BuildStatus",
    "JobResult",
    "StepResult",
]

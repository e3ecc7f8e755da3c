"""Exception hierarchy shared by every :mod:`repro` subsystem.

All errors raised by this library derive from :class:`ReproError` so callers
can catch a single base class at API boundaries.  Each substrate defines its
own subclass here rather than in its own package so that low-level packages
(e.g. :mod:`repro.common.minyaml`) never import high-level ones.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TransientError",
    "YamlError",
    "LockError",
    "LockTimeout",
    "StoreError",
    "MissingObjectError",
    "CorruptObjectError",
    "VcsError",
    "ObjectNotFound",
    "ContainerError",
    "ImageNotFound",
    "BuildError",
    "ContainerStartError",
    "OrchestrationError",
    "ModuleFailure",
    "UnreachableHostError",
    "CIError",
    "DataPackageError",
    "IntegrityError",
    "AverError",
    "AverSyntaxError",
    "AverEvalError",
    "PlatformError",
    "AllocationError",
    "MonitorError",
    "EngineError",
    "TaskTimeoutError",
    "InjectedFault",
    "TransientInjectedFault",
    "UnpicklablePayloadError",
    "WorkerCrashError",
    "FuzzError",
    "ServeError",
    "QueueFullError",
    "BadJobError",
    "UnknownJobError",
    "DrainingError",
    "GassyFSError",
    "FSError",
    "MPIError",
    "PopperError",
    "ComplianceError",
    "TemplateNotFound",
    "ValidationFailure",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class TransientError(ReproError):
    """The retryable branch of the hierarchy.

    Errors that model infrastructure transients — an unreachable host, a
    container start race, an injected chaos fault, a task deadline — mix
    this class in (alongside their substrate's base class) and the
    engine's :class:`~repro.engine.resilience.RetryPolicy` retries them
    by default.  Permanent errors (bad config, failed assertion, payload
    bug) stay outside this branch and fail fast.
    """


# --- common -----------------------------------------------------------------
class YamlError(ReproError):
    """Malformed document handed to the built-in YAML-subset parser."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class LockError(ReproError):
    """Inter-process lock misuse or failure (see :mod:`repro.common.locking`)."""


class LockTimeout(LockError, TransientError):
    """A lock was not acquired within its deadline (the holder may well
    release it; retrying is reasonable, hence transient)."""


# --- store ------------------------------------------------------------------
class StoreError(ReproError):
    """Content-addressed artifact store failure."""


class MissingObjectError(StoreError):
    """A content-addressed object id is not present in the store."""

    def __init__(self, oid: str) -> None:
        self.oid = oid
        super().__init__(f"object not in store: {oid}")


class CorruptObjectError(StoreError):
    """A stored object no longer hashes to its id (bit rot / tamper).

    The store moves the offending file into its ``quarantine/``
    directory before raising, so the error carries a remediation path:
    ``popper cache verify`` reports quarantined objects with their
    referrers instead of the read failing the same way forever.
    """

    def __init__(self, oid: str, quarantine_path: "str | None" = None) -> None:
        self.oid = oid
        self.quarantine_path = quarantine_path
        message = f"object {oid[:12]} is corrupt on disk"
        if quarantine_path:
            message += f" (quarantined to {quarantine_path})"
        super().__init__(message)


# --- vcs --------------------------------------------------------------------
class VcsError(ReproError):
    """Version-control substrate failure (bad ref, dirty tree, ...)."""


class ObjectNotFound(VcsError):
    """A content-addressed object id does not exist in the store."""


# --- container --------------------------------------------------------------
class ContainerError(ReproError):
    """Container-engine substrate failure."""


class ImageNotFound(ContainerError):
    """The requested image tag/digest is not in the registry."""


class BuildError(ContainerError):
    """A Containerfile instruction failed during image build."""


class ContainerStartError(ContainerError, TransientError):
    """A container failed to start for a transient reason (start race)."""


# --- orchestration ----------------------------------------------------------
class OrchestrationError(ReproError):
    """Playbook-level failure (unreachable host, undefined variable, ...)."""


class UnreachableHostError(OrchestrationError, TransientError):
    """A managed host cannot be contacted (provisioning / network fault)."""


class ModuleFailure(OrchestrationError):
    """A task module reported failure on a host."""

    def __init__(self, host: str, module: str, msg: str) -> None:
        self.host = host
        self.module = module
        super().__init__(f"[{host}] {module}: {msg}")


# --- ci ---------------------------------------------------------------------
class CIError(ReproError):
    """Continuous-integration substrate failure."""


# --- check ------------------------------------------------------------------
class CheckError(ReproError):
    """Degradation-check subsystem failure (detectors, profiles, history)."""


# --- datapkg ----------------------------------------------------------------
class DataPackageError(ReproError):
    """Dataset-management substrate failure."""


class IntegrityError(DataPackageError):
    """A resource's content hash does not match its descriptor."""


# --- aver -------------------------------------------------------------------
class AverError(ReproError):
    """Base class for the Aver validation language."""


class AverSyntaxError(AverError):
    """The assertion source does not parse."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"at offset {position}: {message}"
        super().__init__(message)


class AverEvalError(AverError):
    """The assertion parsed but cannot be evaluated against the data."""


# --- platform ---------------------------------------------------------------
class PlatformError(ReproError):
    """Simulated-hardware substrate failure."""


class AllocationError(PlatformError):
    """A site cannot satisfy a node-allocation request."""


# --- monitor ----------------------------------------------------------------
class MonitorError(ReproError):
    """Metric collection / time-series failure."""


# --- engine -----------------------------------------------------------------
class EngineError(ReproError):
    """Task-graph execution failure (cycle, unknown dependency, ...)."""


class TaskTimeoutError(EngineError, TransientError):
    """A task exceeded its per-task deadline (retryable by default)."""


class InjectedFault(EngineError):
    """A fault deliberately injected by a chaos-testing fault plan."""


class TransientInjectedFault(InjectedFault, TransientError):
    """An injected fault modeling a transient (retry should clear it)."""


class UnpicklablePayloadError(EngineError):
    """A payload (or its value) cannot cross a process boundary.

    The process scheduler audits every payload before spawning workers
    and demotes a graph holding a closure, lambda or otherwise
    unpicklable payload to the threaded backend.  This error fails a
    task whose *return value* cannot be pickled back to the parent —
    the task executed, but its result cannot reach dependents.
    """


class WorkerCrashError(EngineError):
    """A worker process died without reporting its task's outcome.

    The parent notices the dead worker (non-zero exit, no ``done``
    record) and fails the in-flight task with this error; downstream
    tasks are skipped as for any failure.
    """


# --- fuzz -------------------------------------------------------------------
class FuzzError(ReproError):
    """Scenario-fuzzing subsystem failure (campaign, corpus, minimizer)."""


# --- serve ------------------------------------------------------------------
class ServeError(ReproError):
    """Job-queue service failure (queue, worker pool, HTTP API)."""


class QueueFullError(ServeError, TransientError):
    """The job queue is at its admission bound (HTTP 429; the client
    should back off and retry — transient by construction)."""


class BadJobError(ServeError):
    """A job submission is malformed (bad JSON, bogus tenant, wrong
    types) and was rejected at admission (HTTP 400/422)."""


class UnknownJobError(ServeError):
    """A job id that the queue has no record of (HTTP 404)."""


class DrainingError(ServeError, TransientError):
    """The daemon is draining and not admitting work (HTTP 503; a
    restarted daemon will accept the retry)."""


# --- gassyfs ----------------------------------------------------------------
class GassyFSError(ReproError):
    """GassyFS distributed file-system failure."""


class FSError(GassyFSError):
    """POSIX-style file-system error (ENOENT, EEXIST, ENOSPC...)."""

    def __init__(self, errno_name: str, path: str, msg: str = "") -> None:
        self.errno_name = errno_name
        self.path = path
        super().__init__(f"{errno_name}: {path}" + (f" ({msg})" if msg else ""))


# --- mpicomm ----------------------------------------------------------------
class MPIError(ReproError):
    """Simulated-MPI failure (rank mismatch, truncation, deadlock...)."""


# --- core (popper) ----------------------------------------------------------
class PopperError(ReproError):
    """Popper convention engine failure."""


class ComplianceError(PopperError):
    """A repository or experiment violates the Popper convention."""


class TemplateNotFound(PopperError):
    """`popper add` requested a template that is not registered."""


class ValidationFailure(PopperError):
    """A domain-specific (Aver) validation did not hold on the results."""

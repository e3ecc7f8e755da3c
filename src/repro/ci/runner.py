"""The CI service: builds, jobs, steps and build history.

A :class:`CIServer` watches a :class:`~repro.vcs.Repository`; triggering a
build parses the repo's ``.travis.yml``, expands the env matrix into jobs,
and runs each job's steps in its own scratch checkout through a command
executor (a container by default).  Build records accumulate into a
history that answers "is this repository currently passing?" — the
integrity half of the paper's automated-validation story.

Matrix jobs are independent nodes of a :class:`~repro.engine.TaskGraph`,
scheduled by the rule ``popper run -j`` follows
(:func:`~repro.engine.resolve_backend`): ``CIServer(..., jobs=1)`` (the
CLI's ``popper ci``) runs them one after another in this process, and
``jobs=N`` runs them on N worker processes of the supervised pool.  Each
job is a picklable :class:`MatrixJob` that checks the commit out and runs
its steps in whatever process runs it, so concurrent jobs share no
stdout, environment or crash plan, as hosted CI runs each matrix job in
its own VM.  A worker that dies mid-job fails that job alone.

Every build is traced and journaled: the server opens a span per build
(``ci/build/<n>``), per job and per step, and writes the events to a
per-build JSONL journal artifact under ``.pvcs/ci-journals/`` so a
failed CI run can be debugged after the fact (which check ran, how long,
with what exit code) without re-triggering it.  A build is numbered one
past the highest journal there, so no build overwrites another's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable

from repro.common.errors import CIError
from repro.common.fsutil import rmtree_quiet
from repro.container.image import Image, scratch
from repro.container.runtime import BinaryRegistry, Container, ExecResult
from repro.ci.config import CIConfig
from repro.engine import TaskGraph, TaskOutcome, resolve_backend
from repro.monitor.journal import RunJournal
from repro.monitor.tracing import Tracer, current_tracer
from repro.vcs.repository import Repository

__all__ = [
    "StepResult",
    "JobResult",
    "BuildRecord",
    "BuildStatus",
    "ContainerExecutor",
    "MatrixJob",
    "CIServer",
]


class BuildStatus(str, Enum):
    PASSED = "passed"
    FAILED = "failed"
    ERRORED = "errored"


@dataclass(frozen=True)
class StepResult:
    """One executed step."""

    phase: str
    command: str
    exit_code: int
    stdout: str = ""
    stderr: str = ""

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


@dataclass
class JobResult:
    """One matrix job's outcome."""

    env: dict[str, str]
    steps: list[StepResult] = field(default_factory=list)
    status: BuildStatus = BuildStatus.PASSED
    #: Why the job failed without a step to blame: its payload raised,
    #: or its worker process died (the reason names the exit code).
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == BuildStatus.PASSED


@dataclass
class BuildRecord:
    """One triggered build (all matrix jobs for one commit).

    ``perf`` carries the degradation-detector verdicts comparing this
    commit's attached profile against the pooled baseline of prior
    commits — advisory only (empty when no profiles exist; never flips
    the build status).
    """

    number: int
    commit: str
    status: BuildStatus
    jobs: list[JobResult]
    duration_s: float = 0.0
    perf: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == BuildStatus.PASSED


Executor = Callable[[str, dict[str, str], Path], ExecResult]


class ContainerExecutor:
    """Runs CI steps inside a fresh container with the workspace mounted.

    The container starts from *image* (so ``install`` steps can assume a
    base toolchain) and sees the checked-out repository at ``/build``.
    """

    def __init__(
        self,
        image: Image | None = None,
        binaries: BinaryRegistry | None = None,
    ) -> None:
        self.image = image if image is not None else scratch()
        self.binaries = binaries
        self._container: Container | None = None

    def reset(self, workspace: Path) -> None:
        """Fresh container per job (CI's clean-environment guarantee)."""
        self._container = Container(
            self.image,
            binaries=self.binaries,
            name="ci",
            mounts={"/build": workspace},
        )
        self._container.workdir = "/build"

    def __call__(self, command: str, env: dict[str, str], workspace: Path) -> ExecResult:
        if self._container is None:
            self.reset(workspace)
        assert self._container is not None
        self._container.env.update(env)
        return self._container.run(command)


@dataclass(frozen=True)
class MatrixJob:
    """One matrix job: the build graph's picklable task payload.

    It checks *commit* of the repository at *repo_root* out into
    *workspace* and runs the job's steps with *executor*, in whatever
    process runs it: the CI server's at ``-j 1``, a pool worker's at
    ``-j N``.  Its spans go to that process's ambient tracer.
    """

    repo_root: Path
    commit: str
    config: CIConfig
    env: dict[str, str]
    workspace: Path
    executor: Executor | ContainerExecutor

    def __call__(self, ctx) -> JobResult:
        store = Repository(self.repo_root).store
        rmtree_quiet(self.workspace)
        self.workspace.mkdir(parents=True)
        # One materialization path for every workspace: blobs come out
        # of the shared content pool verified, and land atomically.
        store.checkout_tree(store.get_commit(self.commit).tree, self.workspace)
        return self._run_steps()

    def _run_steps(self) -> JobResult:
        """Run the job's phases in its workspace; a failing step ends them."""
        config, executor = self.config, self.executor
        tracer = current_tracer()
        job = JobResult(env=self.env)
        if hasattr(executor, "reset"):
            executor.reset(self.workspace)

        def run_step(phase: str, command: str) -> StepResult:
            with tracer.span("ci/step", phase=phase, command=command) as span:
                result = executor(command, self.env, self.workspace)
                span.attributes["exit_code"] = result.exit_code
            step = StepResult(
                phase=phase,
                command=command,
                exit_code=result.exit_code,
                stdout=result.stdout,
                stderr=result.stderr,
            )
            job.steps.append(step)
            return step

        with tracer.span("ci/job", env=self.env) as job_span:
            phases = [
                ("install", config.install),
                ("before_script", config.before_script),
                ("script", config.script),
            ]
            failed = False
            for phase, commands in phases:
                if failed:
                    break
                for command in commands:
                    if not run_step(phase, command).ok:
                        failed = True
                        break
            tail = config.after_failure if failed else config.after_script
            for command in tail:
                run_step("after_failure" if failed else "after_script", command)
            job.status = BuildStatus.FAILED if failed else BuildStatus.PASSED
            job_span.attributes["status"] = job.status.value
        return job


def _job_result(outcome: TaskOutcome, env: dict[str, str]) -> JobResult:
    """The build record's entry for one job task, whatever ended it."""
    if outcome.ok:
        return outcome.value
    error = outcome.error
    return JobResult(
        env=env,
        status=BuildStatus.FAILED,
        error=f"{type(error).__name__}: {error}",
    )


class CIServer:
    """A hosted-CI stand-in bound to one repository.

    *jobs* picks the scheduler as ``popper run -j`` does: 1 runs matrix
    jobs serially in this process, N > 1 on N worker processes, clamped
    to the core count with :attr:`warning` saying so.
    """

    def __init__(
        self,
        repo: Repository,
        executor: Executor | ContainerExecutor | None = None,
        config_path: str = ".travis.yml",
        workspace_root: Path | None = None,
        journal_root: Path | None = None,
        jobs: int = 1,
    ) -> None:
        self.repo = repo
        self.executor = executor if executor is not None else ContainerExecutor()
        self.config_path = config_path
        self.workspace_root = workspace_root or (repo.root / ".pvcs" / "ci-workspaces")
        self.journal_root = journal_root or (repo.root / ".pvcs" / "ci-journals")
        self.scheduler, _workers, self.warning = resolve_backend(jobs)
        self.history: list[BuildRecord] = []

    def journal_path(self, number: int) -> Path:
        """The JSONL journal artifact for build *number*."""
        return Path(self.journal_root) / f"build-{number}.jsonl"

    def _next_number(self) -> int:
        """One past the highest build journaled under :attr:`journal_root`."""
        numbers = [
            int(path.stem[len("build-"):])
            for path in Path(self.journal_root).glob("build-*.jsonl")
            if path.stem[len("build-"):].isdigit()
        ]
        return max(numbers, default=0) + 1

    # -- build orchestration ------------------------------------------------------
    def trigger(self, ref: str = "HEAD") -> BuildRecord:
        """Run a build for *ref*; appends to and returns from history.

        The build's span events land in :meth:`journal_path`, which
        survives the build (the workspace does not).  Every build runs
        all of its matrix jobs, as a restarted hosted-CI build does.
        """
        commit = self.repo.resolve(ref)
        number = self._next_number()
        started = time.perf_counter()
        journal = RunJournal(self.journal_path(number))
        tracer = Tracer(journal=journal)
        journal.event("run_start", build=number, ref=ref, commit=commit)
        try:
            config_text = self.repo.cat(commit, self.config_path).decode("utf-8")
        except Exception as exc:
            record = BuildRecord(
                number=number,
                commit=commit,
                status=BuildStatus.ERRORED,
                jobs=[],
            )
            record.duration_s = time.perf_counter() - started
            self.history.append(record)
            journal.event(
                "run_end", status="error", duration_s=record.duration_s
            )
            journal.close()
            raise CIError(
                f"build #{number}: cannot read {self.config_path}: {exc}"
            ) from exc
        config = CIConfig.from_yaml(config_text)

        # Each matrix job is an independent graph node with its own
        # checkout; the scheduler runs them serially or on the pool.
        envs = config.expand_matrix()
        build_root = Path(self.workspace_root) / f"build-{number}"
        graph = TaskGraph()
        for index, env in enumerate(envs, start=1):
            graph.add(
                f"job-{index}",
                MatrixJob(
                    repo_root=self.repo.root,
                    commit=commit,
                    config=config,
                    env=env,
                    workspace=build_root / f"job-{index}",
                    executor=self.executor,
                ),
            )
        try:
            with tracer.span(f"ci/build/{number}", commit=commit, ref=ref):
                recap = self.scheduler.run(graph, tracer=tracer)
        finally:
            rmtree_quiet(build_root)
        # Matrix order, not completion order, for the build record.
        jobs = [
            _job_result(recap.outcome(f"job-{index}"), env)
            for index, env in enumerate(envs, start=1)
        ]

        status = (
            BuildStatus.PASSED
            if all(j.ok for j in jobs)
            else BuildStatus.FAILED
        )
        perf = self._perf_verdicts(commit) if status is BuildStatus.PASSED else []
        record = BuildRecord(
            number=number,
            commit=commit,
            status=status,
            jobs=jobs,
            duration_s=time.perf_counter() - started,
            perf=perf,
        )
        self.history.append(record)
        for verdict in perf:
            journal.event(
                "degradation",
                metric=verdict.metric,
                detector=verdict.detector,
                change=verdict.change.value,
                rate=verdict.rate,
                confidence=verdict.confidence,
            )
        journal.event("run_end", status=status.value, duration_s=record.duration_s)
        journal.close()
        return record

    def _perf_verdicts(self, commit: str) -> list:
        """Advisory degradation verdicts for a passed build.

        Compares *commit*'s attached profile (``.pvcs/profiles/``)
        against the pooled baseline of its first-parent ancestors via
        the shared detector suite.  Builds of unprofiled commits — the
        common case for repositories not using performance profiles —
        return an empty list at the cost of one ``exists`` check.
        """
        from repro.check.profiles import ProfileHistory
        from repro.check.suite import default_suite

        history = ProfileHistory(self.repo.meta)
        candidate = history.get(commit)
        if candidate is None or not candidate.series:
            return []
        prior = [
            entry.oid for entry in self.repo.log(commit) if entry.oid != commit
        ]
        baseline = history.baseline_for(list(reversed(prior)))
        if baseline is None:
            return []
        return default_suite().compare_series(baseline.series, candidate.series)

    # -- queries --------------------------------------------------------------------
    def latest(self) -> BuildRecord | None:
        return self.history[-1] if self.history else None

    def badge(self) -> str:
        """``build: passing`` / ``build: failing`` / ``build: unknown``."""
        latest = self.latest()
        if latest is None:
            return "build: unknown"
        return "build: passing" if latest.ok else "build: failing"

    def builds_for(self, commit_prefix: str) -> list[BuildRecord]:
        return [b for b in self.history if b.commit.startswith(commit_prefix)]

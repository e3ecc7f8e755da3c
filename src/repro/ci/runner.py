"""The CI service: builds, jobs, steps and build history.

A :class:`CIServer` watches a :class:`~repro.vcs.Repository`; triggering a
build checks out the commit into per-job scratch workspaces, parses the
repo's ``.travis.yml``, expands the env matrix into jobs, and runs each
job's steps through a command executor (a container by default).  Build
records accumulate into a history that answers "is this repository
currently passing?" — the integrity half of the paper's
automated-validation story.

Matrix jobs are independent nodes of a :class:`~repro.engine.TaskGraph`:
``CIServer(..., jobs=N)`` (the CLI's ``popper ci -j N``) schedules up to
N of them concurrently through the shared execution engine; each job
gets its own checkout and its own executor (via ``executor.clone()``
when available) so concurrent jobs cannot observe each other's builds.

Every build is traced and journaled: the server opens a span per build
(``ci/build/<n>``), per job and per step, and writes the events to a
per-build JSONL journal artifact under ``.pvcs/ci-journals/`` so a
failed CI run can be debugged after the fact (which check ran, how long,
with what exit code) without re-triggering it.
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
from repro.engine import (
    RunOptions,
    RunStateStore,
    SerialScheduler,
    TaskGraph,
    ThreadedScheduler,
    task_fingerprint,
)
from repro.monitor.journal import RunJournal
from repro.monitor.tracing import Tracer
from repro.vcs.repository import Repository

__all__ = [
    "StepResult",
    "JobResult",
    "BuildRecord",
    "BuildStatus",
    "ContainerExecutor",
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
    #: True when the job was skipped because a previous build already
    #: passed it for the same commit and env (``popper ci --resume``).
    restored: bool = False

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

    @property
    def perf_regressed(self) -> bool:
        """Any firm degradation verdict among the perf comparisons."""
        return any(
            getattr(v, "change", None) is not None and v.regressed
            for v in self.perf
        )


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

    def clone(self) -> "ContainerExecutor":
        """A fresh executor sharing config but no container state.

        Concurrent matrix jobs each get their own clone, so one job's
        container environment can never leak into another's.
        """
        return ContainerExecutor(image=self.image, binaries=self.binaries)

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


class CIServer:
    """A hosted-CI stand-in bound to one repository."""

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
        self.jobs = max(1, int(jobs))
        self.history: list[BuildRecord] = []

    def journal_path(self, number: int) -> Path:
        """The JSONL journal artifact for build *number*."""
        return Path(self.journal_root) / f"build-{number}.jsonl"

    @property
    def state_path(self) -> Path:
        """The checkpoint file ``--resume`` builds read and write."""
        return Path(self.journal_root) / "ci-state.jsonl"

    # -- build orchestration ------------------------------------------------------
    def trigger(self, ref: str = "HEAD", resume: bool = False) -> BuildRecord:
        """Run a build for *ref*; appends to and returns from history.

        The build's span events land in :meth:`journal_path`, which
        survives the build (the workspace does not).  With ``resume``,
        matrix jobs that already passed for the same commit and env in a
        previous (interrupted) build are restored from
        :attr:`state_path` instead of re-executed; jobs that ran but
        failed their steps are never cached.
        """
        commit = self.repo.resolve(ref)
        number = len(self.history) + 1
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
        # checkout and executor; the engine runs up to self.jobs at once.
        envs = config.expand_matrix()
        build_root = Path(self.workspace_root) / f"build-{number}"

        def job_task(env: dict[str, str], index: int):
            def payload(ctx):
                workspace = self._checkout(
                    commit, build_root / f"job-{index}"
                )
                executor = (
                    self.executor.clone()
                    if hasattr(self.executor, "clone")
                    else self.executor
                )
                return self._run_job(config, env, workspace, tracer, executor)

            return payload

        def job_restore(env: dict[str, str]):
            def restore(detail: dict) -> JobResult:
                return JobResult(
                    env=env, status=BuildStatus.PASSED, restored=True
                )

            return restore

        graph = TaskGraph()
        for index, env in enumerate(envs, start=1):
            graph.add(
                f"job-{index}",
                job_task(env, index),
                # The fingerprint covers commit + expanded env: a new
                # commit (or a matrix edit) invalidates every checkpoint.
                fingerprint=task_fingerprint(
                    f"ci/job-{index}", {"commit": commit, "env": env}
                ),
                # A job that ran but failed its steps returns normally
                # (outcome OK) — vetoing the checkpoint keeps it
                # re-running on resume instead of caching the failure.
                checkpoint=lambda job: (
                    {"env": job.env, "status": job.status.value}
                    if job.ok
                    else None
                ),
                restore=job_restore(env),
            )
        # Threads: the job payloads close over the live server (unpicklable).
        scheduler = (
            ThreadedScheduler(max_workers=self.jobs)
            if self.jobs > 1
            else SerialScheduler()
        )
        try:
            with RunStateStore(self.state_path, resume=resume) as store:
                options = RunOptions(run_state=store)
                with tracer.span(f"ci/build/{number}", commit=commit, ref=ref):
                    recap = scheduler.run(graph, tracer=tracer, options=options)
            recap.raise_first_error()
        finally:
            rmtree_quiet(build_root)
        # Matrix order, not completion order, for the build record.
        jobs = [recap.value(f"job-{i}") for i in range(1, len(envs) + 1)]

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

    def _checkout(self, commit: str, workspace: Path) -> Path:
        rmtree_quiet(workspace)
        workspace.mkdir(parents=True)
        commit_obj = self.repo.store.get_commit(commit)
        # One materialization path for every workspace: blobs come out
        # of the shared content pool verified, and land atomically.
        self.repo.store.checkout_tree(commit_obj.tree, workspace)
        return workspace

    def _run_job(
        self,
        config: CIConfig,
        env: dict[str, str],
        workspace: Path,
        tracer: Tracer | None = None,
        executor: Executor | ContainerExecutor | None = None,
    ) -> JobResult:
        tracer = tracer if tracer is not None else Tracer()
        executor = executor if executor is not None else self.executor
        job = JobResult(env=env)
        if hasattr(executor, "reset"):
            executor.reset(workspace)

        def run_step(phase: str, command: str) -> StepResult:
            with tracer.span("ci/step", phase=phase, command=command) as span:
                result = executor(command, env, workspace)
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

        with tracer.span("ci/job", env=env) as job_span:
            phases = [
                ("install", config.install, True),
                ("before_script", config.before_script, True),
                ("script", config.script, True),
            ]
            failed = False
            for phase, commands, fatal in phases:
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

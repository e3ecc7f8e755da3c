"""Wiring the Popper CLI into the CI substrate.

The repository's ``.travis.yml`` scripts call ``popper check`` and
``popper run ...`` (category-1 integrity validation).  In hosted CI those
commands execute inside the build environment; here,
:class:`PopperExecutor` recognizes ``popper ...`` and ``aver ...``
commands and runs them in-process against the checked-out workspace,
delegating anything else to the container executor.  The result is a
:class:`~repro.ci.runner.CIServer` that gates commits of a Popperized
paper exactly the way the paper describes.
"""

from __future__ import annotations

import contextlib
import io
import shlex
import threading
from pathlib import Path

from repro.container.runtime import ExecResult
from repro.ci.runner import ContainerExecutor

__all__ = ["PopperExecutor", "make_ci_server"]


class PopperExecutor:
    """CI executor understanding the Popper toolchain's commands."""

    # ``contextlib.redirect_stdout`` swaps the *process-wide* sys.stdout;
    # concurrent jobs must serialize in-process command execution or
    # their output would interleave into the wrong job's StepResult.
    _INPROCESS_LOCK = threading.Lock()

    def __init__(self, fallback: ContainerExecutor | None = None) -> None:
        self.fallback = fallback or ContainerExecutor()

    def clone(self) -> "PopperExecutor":
        """A fresh executor for one concurrent matrix job."""
        return PopperExecutor(fallback=self.fallback.clone())

    def reset(self, workspace: Path) -> None:
        # A CI checkout is a bare file tree; a hosted CI job would be
        # operating on a fresh clone, so recreate that precondition.
        from repro.vcs.repository import Repository

        if not Repository.is_repository(workspace):
            repo = Repository.init(workspace)
            repo.add_all()
            repo.commit("ci checkout")
        self.fallback.reset(workspace)

    def __call__(self, command: str, env: dict[str, str], workspace: Path) -> ExecResult:
        for key, value in env.items():
            command = command.replace(f"${{{key}}}", value).replace(f"${key}", value)
        argv = shlex.split(command)
        if argv and argv[0] == "popper":
            from repro.core.cli import main as popper_main

            return self._run_inprocess(
                popper_main, ["-C", str(workspace)] + argv[1:]
            )
        if argv and argv[0] == "aver":
            from repro.aver.cli import main as aver_main

            rewritten = [
                str(workspace / a) if a.endswith((".csv", ".aver")) else a
                for a in argv[1:]
            ]
            return self._run_inprocess(aver_main, rewritten)
        return self.fallback(command, env, workspace)

    @classmethod
    def _run_inprocess(cls, entry, argv: list[str]) -> ExecResult:
        stdout = io.StringIO()
        stderr = io.StringIO()
        with cls._INPROCESS_LOCK:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = int(entry(argv))
                except SystemExit as exc:  # argparse errors
                    code = int(exc.code or 0)
        return ExecResult(
            exit_code=code, stdout=stdout.getvalue(), stderr=stderr.getvalue()
        )


def make_ci_server(popper_repo, jobs: int = 1) -> "CIServer":
    """A CI server for a Popper repository with the integrated executor.

    *jobs* bounds how many matrix jobs run concurrently (``popper ci
    -j``).
    """
    from repro.ci.runner import CIServer

    return CIServer(popper_repo.vcs, executor=PopperExecutor(), jobs=jobs)

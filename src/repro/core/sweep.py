"""The sweep job: one experiment of ``popper run``, as a picklable unit.

``popper run --all -j N`` executes experiments as tasks of a
:class:`~repro.engine.TaskGraph`.  With N > 1 they run on the
:class:`~repro.engine.ProcessScheduler`, which ships each task's
payload to a worker *process* — so the payload must survive
``pickle``, which rules out the closures the CLI historically built.

:class:`SweepExperimentJob` is that payload as plain data: the
repository root and the run's knobs.  Everything heavyweight or
unpicklable — the open repository, stores, the live
:class:`~repro.engine.CancelToken` — is reconstructed (or simply absent)
on the far side:

* the worker reopens the repository from ``repo_root`` and rebuilds the
  retry policy and per-experiment fault plan from their specs (fault
  seeds derive per experiment name, exactly as the CLI derives them);
* the cancel token only exists in the parent process, so under the
  process backend a signal drains at whole-experiment granularity —
  in-flight experiments finish and are filed; with ``-j 1``
  :meth:`bind` supplies the shared repo and token and cancellation
  additionally drains at stage granularity.

A whole experiment is also one artifact-store entry, and ``popper run``
and ``popper serve`` share it: :func:`sweep_key` is its memo key,
:func:`sweep_outputs` the files it holds and :func:`sweep_meta` its
record meta.  Both writers file through these three, so a result filed
either way serves the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.common.hashing import sha256_text
from repro.common.rng import derive_seed
from repro.core.pipeline import (
    NOTEBOOK_FILE,
    ExperimentPipeline,
    ExperimentResult,
)
from repro.core.postprocess import PROCESS_SCRIPT
from repro.core.repo import PopperRepository
from repro.engine import CancelToken, FaultPlan, RetryPolicy, task_fingerprint

__all__ = ["SweepExperimentJob", "sweep_key", "sweep_meta", "sweep_outputs"]


#: The files a hit on the whole-experiment entry lets a run skip
#: reading.  ``validations.aver`` is not one of them: every hit
#: re-evaluates it.
_KEYED_FILES = ("vars.yml", "setup.yml", PROCESS_SCRIPT, NOTEBOOK_FILE)


def sweep_key(repo: PopperRepository, name: str) -> str:
    """The memo key of experiment *name*'s whole run.

    It covers the content of ``vars.yml``, ``setup.yml``,
    ``process-result.py`` and ``visualize.nb.json`` (a missing file
    counts as empty): editing any of them invalidates the entry, and the
    experiment re-runs.
    """
    exp_dir = repo.experiment_dir(name)
    digests = {}
    for file in _KEYED_FILES:
        path = exp_dir / file
        text = path.read_text(encoding="utf-8") if path.is_file() else ""
        digests[file] = sha256_text(text)
    return task_fingerprint(f"sweep/{name}", digests)


def sweep_outputs(
    repo: PopperRepository, name: str, figures: Mapping[str, str | Path]
) -> dict[str, Path]:
    """Logical name -> file, for everything one run of *name* files."""
    exp_dir = repo.experiment_dir(name)
    files = {
        "results": exp_dir / "results.csv",
        "report": exp_dir / "validation_report.txt",
    }
    for figure_name, path in figures.items():
        files[f"figure-{figure_name}"] = Path(path)
    for extra in ("figure.svg", "baseline.json"):
        if (exp_dir / extra).is_file():
            files[extra] = exp_dir / extra
    return files


def sweep_meta(rows: int, validated: bool) -> dict | None:
    """The record meta, ``{"rows": N}``; ``None`` vetoes filing.

    Only validated runs are worth replaying, so every hit replays a
    validated run; a run with failed validations must re-execute.
    """
    return {"rows": rows} if validated else None


@dataclass
class SweepExperimentJob:
    """Run one experiment end to end; the sweep graph's task payload."""

    repo_root: str
    name: str
    strict: bool = False
    validate_only: bool = False
    retries: int = 0
    task_timeout: float | None = None
    fault_spec: str | None = None
    fault_seed: int = 42
    use_cache: bool = True
    backend: str = "serial"
    workers: int = 1

    def bind(
        self,
        repo: PopperRepository | None = None,
        cancel: CancelToken | None = None,
    ) -> "SweepExperimentJob":
        """Attach in-process-only collaborators (not pickled).

        The CLI binds its open repository and live cancel token so a
        serial run shares them; a process-backend worker unpickles the
        job without them and reconstructs what it needs.
        """
        self._repo = repo
        self._cancel = cancel
        return self

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_repo", None)
        state.pop("_cancel", None)
        return state

    def _fault_plan(self) -> FaultPlan | None:
        if not self.fault_spec:
            return None
        # One plan per experiment: stage ids ("run", "setup") repeat
        # across experiments, and sharing one plan's counters would let
        # the first experiment consume every injected failure.
        return FaultPlan.parse(
            self.fault_spec,
            seed=derive_seed(self.fault_seed, "faults", self.name),
        )

    def __call__(self, ctx) -> ExperimentResult:
        repo = getattr(self, "_repo", None)
        if repo is None:
            repo = PopperRepository.open(self.repo_root)
        pipeline = ExperimentPipeline(
            repo,
            self.name,
            retry=(
                RetryPolicy(max_attempts=self.retries + 1, seed=self.fault_seed)
                if self.retries
                else None
            ),
            timeout_s=self.task_timeout,
            faults=self._fault_plan(),
            artifact_store=repo.artifact_store if self.use_cache else None,
            cancel=getattr(self, "_cancel", None),
            run_meta={
                "backend": self.backend,
                "workers": self.workers,
                # The effective injection seed, so any run's journal
                # header says how to reproduce its fault/crash schedule.
                "seed": self.fault_seed,
            },
        )
        if self.validate_only:
            return pipeline.validate_existing()
        return pipeline.run(strict=self.strict)

"""The Popper repository: the paper's Listing 1 layout, under version
control.

::

    paper-repo
    | README.md
    | .travis.yml
    | .popper.yml
    | experiments/
    |   |-- myexp/
    |       |-- datasets/
    |       |-- vars.yml  setup.yml  run.sh  validations.aver
    |       |-- results.csv  validation_report.txt   (after a run)
    | paper/
    |   |-- build.sh  paper.md  figures/  references.bib

``PopperRepository`` wraps the VCS substrate and the config file and
implements ``init`` / ``add_experiment`` / ``add_paper`` plus the path
accessors every other core module uses.
"""

from __future__ import annotations

from pathlib import Path

from repro.common.errors import PopperError
from repro.common.fsutil import atomic_write, ensure_dir
from repro.core.config import CONFIG_NAME, PopperConfig
from repro.store import ArtifactStore
from repro.vcs.repository import Repository

__all__ = ["PopperRepository", "PAPER_TEMPLATES"]


#: Manuscript templates (`popper paper list`): generic article and the
#: BAMS layout the weather use case mentions.
PAPER_TEMPLATES: dict[str, dict[str, str]] = {
    "generic-article": {
        "paper/paper.md": (
            "# Title\n\n## Abstract\n\nWrite the abstract here.\n\n"
            "## Experiments\n\nReference figures produced under "
            "`experiments/*/figures/`.\n"
        ),
        "paper/build.sh": (
            "#!/bin/sh\n# Build the manuscript into paper/output.pdf\n"
            "popper paper build\n"
        ),
        "paper/references.bib": "% BibTeX entries\n",
    },
    "bams-article": {
        "paper/paper.md": (
            "# BAMS Article Title\n\n*Capsule summary.*\n\n"
            "## Data availability\n\nDatasets are referenced as data "
            "packages in each experiment's `datasets/` folder.\n"
        ),
        "paper/build.sh": "#!/bin/sh\npopper paper build\n",
        "paper/references.bib": "% BibTeX entries (BAMS style)\n",
    },
}

DEFAULT_TRAVIS = """\
# Integrity checks for this Popper repository (category-1 validation).
# Five jobs run the experiment sweep in one mode each: re-validate the
# stored results; re-execute with retries while the first two attempts
# of every run stage fail; run twice against one artifact store and
# require a warm, identical second pass; crash mid-write, repair with
# popper doctor and resume clean; run on two worker processes.  The
# sixth job, popper selftest, checks the toolchain itself in scratch
# repositories: the degradation detectors, the fuzz loop, the packed
# store and the serve daemon.
language: generic
env:
  - POPPER_JOB="run --all --validate-only"
  - POPPER_JOB="run --all --retries 3 --inject-faults flaky:run:2"
  - POPPER_JOB="run --all --cache-check"
  - POPPER_JOB="run --all --crash-smoke"
  - POPPER_JOB="run --all -j 2"
  - POPPER_JOB=selftest
script:
  - popper check
  - popper ${POPPER_JOB}
"""


class PopperRepository:
    """A repository following the Popper convention."""

    def __init__(self, root: str | Path) -> None:
        self.vcs = Repository.open(root)
        self.root = self.vcs.root
        self.config = PopperConfig.load(self.root)

    # -- lifecycle -----------------------------------------------------------------
    @classmethod
    def init(cls, root: str | Path, author: str = "popper <popper@localhost>") -> "PopperRepository":
        """``popper init``: create the layout (and a VCS repo if needed)."""
        root = Path(root)
        if (root / CONFIG_NAME).exists():
            raise PopperError(f"already a Popper repository: {root}")
        if not Repository.is_repository(root):
            Repository.init(root)
        repo = Repository.open(root)
        config = PopperConfig()
        config.save(root)
        ensure_dir(root / "experiments")
        ensure_dir(root / "paper")
        if not (root / "README.md").exists():
            _scaffold(
                root / "README.md",
                "# A Popperized article\n\nInitialized with `popper init`.\n",
            )
        if not (root / ".travis.yml").exists():
            _scaffold(root / ".travis.yml", DEFAULT_TRAVIS)
        repo.add_all()
        repo.commit("popper init", author=author)
        return cls(root)

    @classmethod
    def open(cls, root: str | Path) -> "PopperRepository":
        return cls(root)

    # -- paths ------------------------------------------------------------------------
    @property
    def experiments_dir(self) -> Path:
        return self.root / "experiments"

    def experiment_dir(self, name: str) -> Path:
        return self.experiments_dir / name

    @property
    def paper_dir(self) -> Path:
        return self.root / "paper"

    @property
    def cache_dir(self) -> Path:
        """Root of the repository's artifact cache (``.pvcs/cache``)."""
        return self.vcs.meta / "cache"

    @property
    def artifact_store(self) -> ArtifactStore:
        """The repository's content-addressed artifact store.

        One store per repository: sweeps, single-experiment runs and CI
        jobs running in checkouts of this repository all dedupe into the
        same pool under ``.pvcs/cache/``.
        """
        return ArtifactStore(self.cache_dir)

    @property
    def profile_history(self):
        """Commit-attached performance profiles (``.pvcs/profiles/``).

        Successful runs attach their stage timings and result columns
        here; the regression detectors (CI gate, Aver ``no_regression``,
        ``popper perf``) read baselines back out of it.
        """
        from repro.check.profiles import ProfileHistory

        return ProfileHistory(self.vcs.meta)

    def experiments(self) -> list[str]:
        return sorted(self.config.experiments)

    # -- experiment management -----------------------------------------------------------
    def add_experiment(
        self, template_name: str, experiment_name: str, commit: bool = True
    ) -> Path:
        """``popper add <template> <name>``: instantiate a template."""
        from repro.core.templates import get_template

        if not experiment_name or "/" in experiment_name:
            raise PopperError(f"bad experiment name: {experiment_name!r}")
        if experiment_name in self.config.experiments:
            raise PopperError(f"experiment already exists: {experiment_name!r}")
        template = get_template(template_name)
        target = self.experiment_dir(experiment_name)
        if target.exists():
            raise PopperError(f"directory already exists: {target}")
        for rel, content in template.files:
            _scaffold(target / rel, content)
        self.config.experiments[experiment_name] = template_name
        self.config.save(self.root)
        if commit:
            self.vcs.add_all()
            self.vcs.commit(f"popper add {template_name} {experiment_name}")
        return target

    def remove_experiment(self, name: str, commit: bool = True) -> None:
        """Drop an experiment from the convention and the tree."""
        if name not in self.config.experiments:
            raise PopperError(f"no such experiment: {name!r}")
        target = self.experiment_dir(name)
        for path in sorted(target.rglob("*"), reverse=True):
            if path.is_file():
                path.unlink()
            else:
                path.rmdir()
        if target.exists():
            target.rmdir()
        del self.config.experiments[name]
        self.config.save(self.root)
        if commit:
            self.vcs.add_all()
            self.vcs.commit(f"popper rm {name}")

    # -- paper management -------------------------------------------------------------------
    def add_paper(self, template_name: str = "generic-article", commit: bool = True) -> None:
        """``popper paper add``: drop in a manuscript template."""
        if template_name not in PAPER_TEMPLATES:
            raise PopperError(
                f"no paper template {template_name!r}; "
                f"available: {sorted(PAPER_TEMPLATES)}"
            )
        for rel, content in PAPER_TEMPLATES[template_name].items():
            _scaffold(self.root / rel, content)
        self.config.paper_template = template_name
        self.config.save(self.root)
        if commit:
            self.vcs.add_all()
            self.vcs.commit(f"popper paper add {template_name}")

    def build_paper(self) -> Path:
        """``popper paper build``: render the manuscript.

        The stand-in renderer concatenates the manuscript with the list
        of generated figure artifacts into ``paper/output.pdf`` (a text
        placeholder — the convention cares that the build is automated
        and CI-checkable, not about TeX itself).
        """
        source = self.paper_dir / "paper.md"
        if not source.is_file():
            raise PopperError("no paper/paper.md; run `popper paper add` first")
        chunks = [source.read_text(encoding="utf-8"), "\n\n## Generated artifacts\n"]
        for name in self.experiments():
            results = self.experiment_dir(name) / "results.csv"
            status = "results available" if results.is_file() else "not yet run"
            chunks.append(f"- experiment `{name}`: {status}\n")
        output = self.paper_dir / "output.pdf"
        atomic_write(
            output, "".join(chunks).encode("utf-8"), durable=False,
            crash_label="paper.build",
        )
        return output


def _scaffold(path: Path, text: str) -> None:
    """Write one file of the layout ``init`` and the templates create.

    Not durable: ``init``, ``add`` and ``paper add`` commit what they
    write, so the VCS store holds the durable copy (a caller passing
    ``commit=False`` commits, or discards, the files itself).
    """
    atomic_write(
        path, text.encode("utf-8"), durable=False, crash_label="repo.scaffold"
    )

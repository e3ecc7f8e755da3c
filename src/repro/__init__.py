"""repro — a from-scratch reproduction of *The Popper Convention: Making
Reproducible Systems Evaluation Practical* (Jimenez et al.).

The package builds the Popper toolchain itself (convention engine, CLI,
Aver validation language, CI, templates) plus every DevOps substrate it
composes (version control, containers, orchestration, dataset
management, monitoring, baseline fingerprinting) and the systems under
study in the paper's use cases (GassyFS, Torpor, the LULESH/mpiP
experiment, the Big-Weather-Web analysis) — all runnable on a laptop
with no network, no Docker daemon and no cluster.

Quickstart::

    from repro.core import PopperRepository, ExperimentPipeline

    repo = PopperRepository.init("/tmp/mypaper-repo")
    repo.add_experiment("gassyfs", "myexp")
    result = ExperimentPipeline(repo, "myexp").run()
    assert result.validated

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

import importlib
import sys

__version__ = "1.0.0"

__all__ = ["__version__", "lazy_exports"]


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__)`` for a package whose exports load lazily.

    *exports* maps each submodule of *package* (by its last name) to the
    public names it provides.  A name's submodule is imported on first
    access to that name, through the package's PEP 562 ``__getattr__``,
    and the value is then bound on the package, so a ``popper`` command
    loads only the submodules it uses::

        __all__, __getattr__ = lazy_exports(__name__, {
            "graph": ("TaskGraph", "TaskState"),
        })
    """
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{owner[name]}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return list(owner), __getattr__

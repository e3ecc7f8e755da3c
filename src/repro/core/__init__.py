"""The Popper convention engine — the paper's primary contribution.

Repository layout and config (Listing 1), the template registry and CLI
(Listing 2), the experiment pipeline with Aver validation (Listing 3),
and the convention-compliance checker.
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repo": ("PopperRepository", "PAPER_TEMPLATES"),
        "config": ("PopperConfig", "CONFIG_NAME"),
        "pipeline": ("ExperimentPipeline", "ExperimentResult"),
        "check": ("ComplianceReport", "Finding", "check_repository"),
        "templates": (
            "TEMPLATES",
            "ExperimentTemplate",
            "get_template",
            "list_templates",
        ),
        "runners": ("EXPERIMENT_RUNNERS", "register_runner", "run_experiment_runner"),
    },
)

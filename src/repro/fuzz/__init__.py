"""Coverage-guided scenario fuzzing with Aver as the property oracle.

``popper fuzz`` mutates experiment inputs — ``vars.yml`` parameter
spaces, pipeline stage lists, ``.travis.yml`` env matrices, inventories,
and FaultPlan/CrashPlan injection grammars — executes each variant
through the real memoized DAG engine in a sandbox repository, scores it
by behavioural novelty plus an interestingness oracle, keeps a corpus of
interesting variants under ``.pvcs/fuzz/``, and delta-debugs failures
down to minimal runnable reproducers.  See ``docs/robustness.md``.
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "campaign": ("FuzzCampaign", "FuzzReport"),
        "corpus": ("Corpus", "CorpusEntry", "FUZZ_DIR"),
        "coverage": ("CoverageMap", "coverage_keys_from_events"),
        "executor": ("ExecutionResult", "VariantRunner"),
        "minimize": ("MinimizationResult", "minimize"),
        "mutators": (
            "MUTATION_RULES",
            "Mutation",
            "apply_chain",
            "apply_mutation",
            "generate_mutation",
        ),
        "oracle": ("Observation", "OracleVerdict", "judge"),
        "scenario": ("Scenario",),
        "smoke": ("fuzz_smoke",),
    },
)

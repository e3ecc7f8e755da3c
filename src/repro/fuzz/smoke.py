"""The fuzz self-check: prove the fuzz loop finds and shrinks.

``popper selftest`` runs it to exercise the whole fuzzing path
end-to-end in seconds, in a scratch repository:

1. a tiny seeded campaign (fixed seed, a few iterations) must generate,
   execute and score at least one variant and grow the coverage map;
2. a *known-bad* variant — an innocuous seed change stacked with an
   Aver threshold tightened to an unreachable bound — must be flagged
   by the oracle as an ``aver-fail`` failure;
3. the delta-debugging minimizer must shrink that two-mutation chain to
   exactly the guilty mutation, and the stored reproducer must re-run
   from its corpus directory and fail the same way.

Like the other self-checks, this turns "the fuzzer imports" into
"the fuzzer catches a planted bug".
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.common import minyaml
from repro.common.errors import FuzzError
from repro.core.repo import PopperRepository
from repro.fuzz.campaign import FuzzCampaign
from repro.fuzz.corpus import CorpusEntry
from repro.fuzz.minimize import minimize
from repro.fuzz.mutators import Mutation, apply_chain
from repro.fuzz.oracle import SEVERITY_FAILURE, judge

__all__ = ["fuzz_smoke"]

#: The planted failure: one innocent mutation plus one guilty one.
_KNOWN_BAD_CHAIN = (
    Mutation("seed-set", {"value": 1234}),
    Mutation("aver-rewrite", {"find": "> 1", "replace": "> 1000"}),
)


def fuzz_smoke(root: str | Path | None = None, iterations: int = 3) -> str:
    """Run the seeded end-to-end fuzz check; return a summary line.

    Raises :class:`FuzzError` if no variant executes, coverage stays
    empty, the planted known-bad variant escapes the oracle, or the
    minimizer fails to shrink it to the single guilty mutation.
    """
    with tempfile.TemporaryDirectory(prefix="fuzz-smoke-") as scratch:
        base = Path(root) if root is not None else Path(scratch)
        repo = PopperRepository.init(base / "repo")
        repo.add_experiment("torpor", "smoke")
        vars_path = repo.experiment_dir("smoke") / "vars.yml"
        doc = minyaml.load_file(vars_path)
        doc["runs"] = 2  # keep each sandboxed pipeline run cheap
        minyaml.dump_file(doc, vars_path)

        campaign = FuzzCampaign(
            repo, seed=7, iterations=iterations, do_minimize=False
        )
        report = campaign.run()
        if report.executed < 1:
            raise FuzzError("fuzz smoke: no variant was executed")
        if report.coverage_size < 1:
            raise FuzzError("fuzz smoke: coverage map stayed empty")
        if not report.outcomes:
            raise FuzzError("fuzz smoke: no variant was scored")

        # The planted known-bad variant must be caught...
        seed_scenario = campaign.seeds["smoke"]
        bad = apply_chain(seed_scenario, list(_KNOWN_BAD_CHAIN))
        result = campaign.runner.run(bad)
        verdict = judge(result.observation)
        if verdict.severity != SEVERITY_FAILURE or "aver-fail" not in verdict.kinds:
            raise FuzzError(
                "fuzz smoke: known-bad variant escaped the oracle "
                f"(verdict: {verdict.kinds}, outcome: {result.outcome})"
            )
        # ...and minimized to exactly the guilty mutation.
        minimal = minimize(
            seed_scenario, _KNOWN_BAD_CHAIN, campaign.runner, verdict.kinds
        )
        if len(minimal.chain) != 1 or minimal.chain[0].rule != "aver-rewrite":
            raise FuzzError(
                "fuzz smoke: minimizer kept "
                f"{[m.rule for m in minimal.chain]}, expected the single "
                "aver-rewrite mutation"
            )
        campaign.reproducers.add(
            CorpusEntry(
                variant=minimal.variant,
                scenario=minimal.scenario,
                chain=minimal.chain,
                verdict=minimal.verdict,
                outcome=result.outcome,
                detail=result.detail,
            )
        )
        # The stored reproducer must replay to the same failure.
        stored = campaign.reproducers.load(minimal.variant)
        replay = judge(campaign.runner.run(stored.scenario).observation)
        if "aver-fail" not in replay.kinds:
            raise FuzzError(
                "fuzz smoke: stored reproducer did not replay its failure"
            )

    return (
        f"fuzz smoke ok: {report.executed} variant(s) executed, "
        f"{report.coverage_size} coverage key(s), known-bad caught "
        f"({'/'.join(verdict.kinds)}) and minimized "
        f"{len(_KNOWN_BAD_CHAIN)} -> {len(minimal.chain)} mutation(s)"
    )

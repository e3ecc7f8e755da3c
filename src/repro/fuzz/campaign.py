"""The campaign driver: generate → execute → score → keep → minimize.

One :class:`FuzzCampaign` iteration:

1. derive the iteration's rng (``derive_seed(seed, "fuzz", i)`` — no
   global random state, so iterations are reorderable and reproducible);
2. pick a base: one of the repository's seed experiments or an already
   admitted corpus entry (mutating survivors is what makes the loop
   *coverage-guided* rather than blind);
3. stack one to three fresh mutations on the base's chain;
4. execute the variant in a sandbox (:class:`VariantRunner`), classify
   it (:func:`~repro.fuzz.oracle.judge`) and diff its behaviour against
   the persistent :class:`~repro.fuzz.coverage.CoverageMap`;
5. admit interesting-or-novel variants to the corpus; delta-debug
   failures down to minimal reproducers under ``.pvcs/fuzz/repro/``.

Everything the campaign writes under ``.pvcs/fuzz/`` is derived from
content alone — rerunning with the same seed and iteration budget in a
fresh repository reproduces the corpus, the coverage map and every
minimized reproducer byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.common.errors import FuzzError
from repro.common.rng import derive_rng
from repro.core.repo import PopperRepository
from repro.fuzz.corpus import Corpus, CorpusEntry, FUZZ_DIR
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.executor import VariantRunner
from repro.fuzz.minimize import minimize
from repro.fuzz.mutators import (
    Mutation,
    apply_chain,
    apply_mutation,
    generate_mutation,
)
from repro.fuzz.oracle import SEVERITY_FAILURE, judge
from repro.fuzz.scenario import Scenario
from repro.monitor.journal import RunJournal
from repro.store import ArtifactStore

__all__ = ["FuzzReport", "FuzzCampaign"]


@dataclass
class FuzzReport:
    """What one campaign did, for the CLI and the smoke job."""

    seed: int
    iterations: int
    executed: int = 0
    duplicates: int = 0
    outcomes: dict = field(default_factory=dict)
    failures: int = 0
    suspicious: int = 0
    admitted: int = 0
    novel_keys: int = 0
    coverage_size: int = 0
    corpus_size: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    minimized: list = field(default_factory=list)  # variant ids

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def describe(self) -> str:
        lines = [
            f"-- fuzz: seed={self.seed} iterations={self.iterations} "
            f"executed={self.executed} duplicates={self.duplicates}",
            "   outcomes: "
            + (
                ", ".join(
                    f"{k}={v}" for k, v in sorted(self.outcomes.items())
                )
                or "none"
            ),
            f"   corpus: +{self.admitted} admitted "
            f"({self.failures} failing, {self.suspicious} suspicious), "
            f"{self.corpus_size} total",
            f"   coverage: +{self.novel_keys} new key(s), "
            f"{self.coverage_size} total",
            f"   cache: {self.cache_hits} hit(s) / "
            f"{self.cache_misses} miss(es) across mutants "
            f"({self.cache_hit_rate:.0%} hit rate)",
        ]
        if self.minimized:
            lines.append(
                "   minimized reproducer(s): "
                + ", ".join(v[:16] for v in self.minimized)
            )
        return "\n".join(lines) + "\n"


class FuzzCampaign:
    """A seeded, deterministic fuzzing run over one repository."""

    def __init__(
        self,
        repo: PopperRepository,
        seed: int = 42,
        iterations: int = 16,
        experiments: list[str] | None = None,
        max_stack: int = 3,
        do_minimize: bool = True,
    ) -> None:
        self.repo = repo
        self.seed = int(seed)
        self.iterations = int(iterations)
        if self.iterations < 1:
            raise FuzzError(f"iterations must be >= 1, got {iterations}")
        names = experiments if experiments else repo.experiments()
        if not names:
            raise FuzzError("no experiments to fuzz; `popper add` one first")
        self.seeds: dict[str, Scenario] = {
            name: Scenario.from_experiment(repo, name) for name in names
        }
        self.max_stack = max(1, int(max_stack))
        self.do_minimize = bool(do_minimize)
        self.state_root: Path = repo.vcs.meta / FUZZ_DIR
        self.coverage = CoverageMap(self.state_root / "coverage.jsonl")
        self.corpus = Corpus(self.state_root / "corpus")
        self.reproducers = Corpus(self.state_root / "repro")
        self.runner = VariantRunner(
            self.state_root / "work",
            seed=self.seed,
            artifact_store=ArtifactStore(self.state_root / "cache"),
        )

    # -- base selection ------------------------------------------------------
    def _bases(self) -> list[tuple[Scenario, tuple[Mutation, ...]]]:
        """Mutation bases: every seed scenario plus every corpus entry
        (as its seed scenario + recorded chain), in a stable order."""
        bases: list[tuple[Scenario, tuple[Mutation, ...]]] = [
            (self.seeds[name], ()) for name in sorted(self.seeds)
        ]
        for entry in self.corpus.entries():
            seed_scenario = self.seeds.get(entry.scenario.name)
            if seed_scenario is not None:
                bases.append((seed_scenario, entry.chain))
        return bases

    # -- the loop ------------------------------------------------------------
    def run(self, journal: RunJournal | None = None) -> FuzzReport:
        try:
            return self._run(journal)
        finally:
            # Commit the coverage map's persistent group-commit writer,
            # which batched its fsyncs across the whole append loop.
            self.coverage.close()

    def _run(self, journal: RunJournal | None = None) -> FuzzReport:
        report = FuzzReport(seed=self.seed, iterations=self.iterations)
        seen: set[str] = {entry.variant for entry in self.corpus.entries()}
        minimized_signatures: set[tuple[str, ...]] = set()
        if journal is not None:
            journal.event(
                "run_start",
                fuzz=True,
                seed=self.seed,
                iterations=self.iterations,
                experiments=sorted(self.seeds),
            )
        for iteration in range(self.iterations):
            rng = derive_rng(self.seed, "fuzz", iteration)
            bases = self._bases()
            base_scenario, base_chain = bases[int(rng.integers(len(bases)))]
            chain = list(base_chain)
            scenario = apply_chain(base_scenario, chain)
            for _ in range(1 + int(rng.integers(self.max_stack))):
                mutation = generate_mutation(scenario, rng)
                chain.append(mutation)
                scenario = apply_mutation(scenario, mutation)
            variant = scenario.fingerprint()
            if variant in seen:
                report.duplicates += 1
                continue
            seen.add(variant)

            result = self.runner.run(scenario)
            report.executed += 1
            report.outcomes[result.outcome] = (
                report.outcomes.get(result.outcome, 0) + 1
            )
            report.cache_hits += result.cache_hits
            report.cache_misses += result.cache_misses
            verdict = judge(result.observation)
            novel = self.coverage.observe(variant, result.coverage)
            report.novel_keys += len(novel)
            if verdict.severity == SEVERITY_FAILURE:
                report.failures += 1
            elif verdict.interesting:
                report.suspicious += 1
            if journal is not None:
                journal.event(
                    "fuzz_variant",
                    variant=variant,
                    iteration=iteration,
                    outcome=result.outcome,
                    severity=verdict.severity,
                    kinds=list(verdict.kinds),
                    chain=len(chain),
                    novel=len(novel),
                )
            if not (verdict.interesting or novel):
                continue
            entry = CorpusEntry(
                variant=variant,
                scenario=scenario,
                chain=tuple(chain),
                verdict=verdict,
                outcome=result.outcome,
                detail=result.detail,
                novel=tuple(sorted(novel)),
            )
            self.corpus.add(entry)
            report.admitted += 1
            if self.do_minimize and verdict.severity == SEVERITY_FAILURE:
                signature = (base_scenario.name,) + verdict.kinds
                if signature not in minimized_signatures:
                    minimized_signatures.add(signature)
                    self._minimize(entry, base_scenario, report, journal)

        report.coverage_size = len(self.coverage)
        report.corpus_size = len(self.corpus)
        return report

    def _minimize(
        self,
        entry: CorpusEntry,
        seed_scenario: Scenario,
        report: FuzzReport,
        journal: RunJournal | None,
    ) -> None:
        minimal = minimize(
            seed_scenario, entry.chain, self.runner, entry.verdict.kinds
        )
        self.reproducers.add(
            CorpusEntry(
                variant=minimal.variant,
                scenario=minimal.scenario,
                chain=minimal.chain,
                verdict=minimal.verdict,
                outcome=entry.outcome,
                detail=entry.detail,
            )
        )
        report.minimized.append(minimal.variant)
        if journal is not None:
            journal.event(
                "fuzz_minimized",
                variant=entry.variant,
                minimal=minimal.variant,
                chain=len(entry.chain),
                minimal_chain=len(minimal.chain),
                executions=minimal.executions,
            )

"""Run one scenario variant through the real toolchain, sandboxed.

Each variant gets a throwaway Popper repository under the campaign's
work root (``.pvcs/fuzz/work/<variant>/``): ``popper init`` layout, the
mutated experiment files, the mutated ``.travis.yml``.  The variant then
passes through the same code paths a user would drive:

1. **static probes** — the mutated ``.travis.yml`` through
   :meth:`CIConfig.from_yaml` / ``expand_matrix`` and the mutated
   fault/crash specs through their plan parsers.  Garbage here must be
   *rejected cleanly* (``ReproError``); anything else escaping is
   already a finding.
2. **pipeline execution** — :class:`ExperimentPipeline` over the memoized
   DAG engine, with the campaign's shared artifact store (so mutants
   that only perturb unrelated surfaces are served from cache — the
   cache-hit rate across mutants is a benchmark headline), the parsed
   fault plan, and the parsed crash plan installed process-globally for
   the duration (restored afterwards, crash debris handed to doctor).
3. **post-run doctor** — ``diagnose``/``repair`` over the sandbox.  A
   clean run that leaves repairable debris is a finding; an injected
   crash whose debris the doctor cannot repair is a worse one.

The executor reports an :class:`ExecutionResult` carrying the raw
:class:`~repro.fuzz.oracle.Observation` for the oracle plus the
journal-derived coverage keys for the novelty feedback loop.
"""

from __future__ import annotations

import contextlib
import io
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.ci.config import CIConfig
from repro.common.crash import CrashPlan, SimulatedCrash, install_crash_plan
from repro.common.errors import ReproError
from repro.common.fsutil import atomic_write, rmtree_quiet
from repro.core.pipeline import ExperimentPipeline
from repro.core.repo import PopperRepository
from repro.engine import FaultPlan, RetryPolicy
from repro.fuzz.coverage import coverage_keys_from_events
from repro.fuzz.oracle import Observation
from repro.fuzz.scenario import Scenario
from repro.monitor.journal import JOURNAL_FILE, load_journal
from repro.orchestration.connection import ContainerConnection
from repro.orchestration.inventory import Inventory
from repro.store import ArtifactStore
from repro.store.doctor import diagnose, repair

__all__ = ["ExecutionResult", "VariantRunner"]


@dataclass
class ExecutionResult:
    """Everything one variant execution produced."""

    variant: str
    outcome: str  # ok | validation-failed | rejected | crash | escape
    detail: str = ""
    coverage: set[str] = field(default_factory=set)
    observation: Observation = field(default_factory=Observation)
    cache_hits: int = 0
    cache_misses: int = 0


class VariantRunner:
    """Materializes and executes scenario variants in sandbox repos."""

    def __init__(
        self,
        work_root: str | Path,
        seed: int = 42,
        artifact_store: ArtifactStore | None = None,
        keep_sandboxes: bool = False,
    ) -> None:
        self.work_root = Path(work_root)
        self.seed = int(seed)
        self.artifact_store = artifact_store
        self.keep_sandboxes = keep_sandboxes

    # -- static surfaces -----------------------------------------------------
    def _probe_travis(self, scenario: Scenario, coverage: set[str]) -> None:
        if scenario.travis is None:
            return
        try:
            config = CIConfig.from_yaml(scenario.travis)
            coverage.add(f"ci-matrix:{len(config.expand_matrix())}")
        except ReproError:
            coverage.add("ci:rejected")

    def _parse_plans(
        self, scenario: Scenario, coverage: set[str]
    ) -> tuple[FaultPlan | None, CrashPlan | None]:
        """Parse the variant's injection specs (EngineError propagates:
        the variant as a whole is then a clean rejection, exactly what
        ``popper run --inject-faults <garbage>`` would be)."""
        faults = crashes = None
        if scenario.fault_spec is not None:
            faults = FaultPlan.parse(scenario.fault_spec, seed=self.seed)
            coverage.add("fault-plan:parsed")
        if scenario.crash_spec is not None:
            crashes = CrashPlan.parse(scenario.crash_spec, seed=self.seed)
            coverage.add("crash-plan:parsed")
        return faults, crashes

    # -- sandbox -------------------------------------------------------------
    def _materialize(self, scenario: Scenario, sandbox: Path) -> PopperRepository:
        rmtree_quiet(sandbox)
        repo = PopperRepository.init(sandbox)
        # The sandbox is scratch: the scenario rebuilds it on every run.
        scenario.write_files(
            repo.experiment_dir(scenario.name), False, crash_label="fuzz.sandbox"
        )
        if scenario.travis is not None:
            atomic_write(
                sandbox / ".travis.yml", scenario.travis.encode("utf-8"),
                durable=False, crash_label="fuzz.sandbox",
            )
        repo.config.experiments[scenario.name] = "fuzz"
        repo.config.save(repo.root)
        return repo

    def _inventory(self, count: int) -> Inventory | None:
        if count == 1:
            return None  # the pipeline's default single-driver inventory
        inventory = Inventory()
        for i in range(count):
            inventory.add_host(
                f"node{i}",
                groups=["head"] if i == 0 else ["workers"],
                connection=ContainerConnection(name=f"node{i}"),
            )
        return inventory

    # -- execution -----------------------------------------------------------
    def run(self, scenario: Scenario) -> ExecutionResult:
        variant = scenario.fingerprint()
        sandbox = self.work_root / variant[:16]
        result = ExecutionResult(variant=variant, outcome="ok")
        coverage = result.coverage
        coverage.add(f"hosts:{scenario.host_count}")
        self._probe_travis(scenario, coverage)
        crashed: SimulatedCrash | None = None
        try:
            faults, crashes = self._parse_plans(scenario, coverage)
            repo = self._materialize(scenario, sandbox)
            pipeline = ExperimentPipeline(
                repo,
                scenario.name,
                inventory=self._inventory(scenario.host_count),
                retry=RetryPolicy(max_attempts=2, backoff_s=0.0, jitter=0.0),
                faults=faults,
                artifact_store=self.artifact_store,
                run_meta={"seed": self.seed, "fuzz": True},
            )
            previous = install_crash_plan(crashes)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    run = pipeline.run(strict=False)
                result.observation.aver_passed = run.validated
                coverage.add(f"aver:{'pass' if run.validated else 'fail'}")
                if not run.validated:
                    result.outcome = "validation-failed"
                    result.detail = "; ".join(
                        v.describe() for v in run.validations if not v.passed
                    )
            finally:
                install_crash_plan(previous)
        except SimulatedCrash as exc:
            crashed = exc
            result.outcome = "crash"
            result.detail = str(exc)
            coverage.add(f"crash:{exc.point}")
        except ReproError as exc:
            result.outcome = "rejected"
            result.detail = f"{type(exc).__name__}: {exc}"
            coverage.add(f"rejected:{type(exc).__name__}")
        except KeyboardInterrupt:
            raise
        except Exception as exc:  # the contract breach the fuzzer hunts
            result.outcome = "escape"
            result.detail = f"{type(exc).__name__}: {exc}"
            coverage.add(f"escape:{type(exc).__name__}")

        self._harvest_journal(scenario, sandbox, result)
        self._post_doctor(sandbox, result, crashed)
        result.observation.outcome = result.outcome
        result.observation.detail = result.detail
        coverage.add(f"outcome:{result.outcome}")
        if not self.keep_sandboxes:
            rmtree_quiet(sandbox)
        return result

    def _harvest_journal(
        self, scenario: Scenario, sandbox: Path, result: ExecutionResult
    ) -> None:
        journal = (
            sandbox / "experiments" / scenario.name / JOURNAL_FILE
        )
        if not journal.is_file():
            return
        try:
            with warnings.catch_warnings():
                # A torn trailing line is *expected* debris when the
                # variant carried an injected crash; the doctor pass
                # scores it, so the reader's warning is just noise here.
                warnings.simplefilter("ignore")
                events, _torn = load_journal(journal)
        except ReproError:
            return
        result.coverage |= coverage_keys_from_events(events, scenario.name)
        for event in events:
            if event.get("event") == "cache":
                if event.get("hit"):
                    result.cache_hits += 1
                else:
                    result.cache_misses += 1
            elif event.get("event") == "degradation" and event.get("change"):
                result.observation.degradations += (str(event["change"]),)

    def _post_doctor(
        self,
        sandbox: Path,
        result: ExecutionResult,
        crashed: SimulatedCrash | None,
    ) -> None:
        if not sandbox.is_dir():
            return
        report = diagnose(sandbox, tmp_age_s=0.0)
        if report.clean:
            return
        kinds = tuple(sorted({f.kind for f in report.findings}))
        repair(report)
        result.observation.doctor_kinds = kinds
        result.observation.doctor_repaired = not report.unrepaired
        for kind in kinds:
            result.coverage.add(f"doctor:{kind}")

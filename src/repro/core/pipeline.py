"""The experiment pipeline: a declared stage DAG, run by the engine.

``popper run <experiment>`` drives one experiment end to end.  The
lifecycle is declared as a :class:`~repro.engine.TaskGraph` rather than
an imperative loop::

    setup ──> [baseline] ──> run ──┬──> postprocess
                                   ├──> [visualize]
                                   └──> validate

1. **setup** — execute the experiment's ``setup.yml`` playbook against a
   (simulated) inventory, gathering environment facts;
2. **baseline gate** (optional) — compare the target machine's
   fingerprint against a stored profile before spending any time on the
   real run ("if the baseline performance cannot be reproduced, there is
   no point in executing the experiment");
3. **run** — dispatch to the runner named in ``vars.yml`` and store
   ``results.csv``;
4. the three *tails* — **postprocess** (``process-result.py``),
   **visualize** (the analysis notebook, when present) and **validate**
   (``validations.aver`` → ``validation_report.txt``) — depend only on
   the run's results table and are independent of each other.  The
   stages run on a :class:`~repro.engine.SerialScheduler`, one at a
   time in a deterministic order; parallelism lives one level up, where
   ``popper run -j N`` runs whole experiments on worker processes.

Every run is observable after the fact: each stage executes inside a
``task/<stage>`` tracing span (root span ``pipeline/run/<experiment>``),
every span's wall time lands in a :class:`~repro.monitor.MetricStore`,
and the whole run — span events, metric samples, baseline fingerprints,
Aver verdicts, exit status — is journaled to the experiment directory's
``journal.jsonl``, which ``popper trace`` renders into per-stage timings
and a critical path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.aver.evaluator import ValidationResult, check_all
from repro.common import minyaml
from repro.common.errors import PopperError, ValidationFailure
from repro.common.fsutil import atomic_write
from repro.common.hashing import sha256_text
from repro.common.tables import MetricsTable
from repro.core.postprocess import PROCESS_SCRIPT, run_postprocess
from repro.core.repo import PopperRepository
from repro.core.runners import run_experiment_runner
from repro.engine import (
    CancelToken,
    FaultPlan,
    MemoizedPayload,
    RetryPolicy,
    RunCancelled,
    RunOptions,
    RUN_STATE_FILE,
    RunStateStore,
    SerialScheduler,
    TaskGraph,
    TaskState,
    task_fingerprint,
)
from repro.store import ArtifactStore
from repro.monitor.journal import JOURNAL_FILE, RunJournal
from repro.monitor.metrics import MetricStore
from repro.monitor.tracing import Tracer, activate

if TYPE_CHECKING:
    from repro.orchestration.inventory import Inventory

__all__ = ["ExperimentResult", "ExperimentPipeline", "NOTEBOOK_FILE", "JOURNAL_FILE"]

#: Per-experiment analysis notebook (the Jupyter `visualize.ipynb` analog).
NOTEBOOK_FILE = "visualize.nb.json"

#: Stage names the lifecycle DAG may contain (for optional_stages checks).
PIPELINE_STAGES = ("setup", "baseline", "run", "postprocess", "visualize", "validate")


@dataclass
class ExperimentResult:
    """Everything a pipeline run produced."""

    experiment: str
    results: MetricsTable
    validations: list[ValidationResult]
    stage_seconds: dict[str, float] = field(default_factory=dict)
    figures: dict[str, object] = field(default_factory=dict)  # name -> Path
    baseline_message: str = ""
    #: Optional stages that failed but did not fail the run.
    degraded_stages: list[str] = field(default_factory=list)

    @property
    def validated(self) -> bool:
        return all(v.passed for v in self.validations)

    def report_text(self) -> str:
        lines = [f"experiment: {self.experiment}", ""]
        for result in self.validations:
            lines.append(result.describe())
        lines.append("")
        verdict = "ALL VALIDATIONS PASSED" if self.validated else "VALIDATION FAILURES"
        lines.append(verdict)
        return "\n".join(lines) + "\n"


class ExperimentPipeline:
    """Runs one experiment of a Popper repository."""

    def __init__(
        self,
        repo: PopperRepository,
        experiment: str,
        metrics: MetricStore | None = None,
        inventory: Inventory | None = None,
        tracer: Tracer | None = None,
        retry: RetryPolicy | None = None,
        timeout_s: float | None = None,
        faults: FaultPlan | None = None,
        artifact_store: ArtifactStore | None = None,
        cancel: CancelToken | None = None,
        run_meta: dict | None = None,
    ) -> None:
        if experiment not in repo.config.experiments:
            raise PopperError(f"no such experiment: {experiment!r}")
        self.repo = repo
        self.experiment = experiment
        self.directory = repo.experiment_dir(experiment)
        # `or` would discard an empty store (MetricStore defines __len__).
        self.metrics = metrics if metrics is not None else MetricStore()
        self.inventory = inventory
        self.tracer = tracer if tracer is not None else Tracer(metrics=self.metrics)
        self.retry = retry
        self.timeout_s = timeout_s
        self.faults = faults
        # Cross-run memoization: when set, cache-aware stages consult
        # the store before executing and file their outputs after.
        self.artifact_store = artifact_store
        # Cooperative shutdown: the scheduler checks this between
        # stages and drains instead of dying mid-write.
        self.cancel = cancel
        # Extra fields for the journal's run_start header — the sweep
        # layer records which backend and worker count drove this run.
        self.run_meta = dict(run_meta) if run_meta else {}

    @property
    def journal_path(self):
        """Where this experiment's run journal lands (``journal.jsonl``)."""
        return self.directory / JOURNAL_FILE

    @property
    def run_state_path(self):
        """Where this experiment's resume checkpoint lands."""
        return self.directory / RUN_STATE_FILE

    # -- pieces ---------------------------------------------------------------------
    def load_vars(self) -> dict:
        path = self.directory / "vars.yml"
        if not path.is_file():
            raise PopperError(f"{self.experiment}: missing vars.yml")
        doc = minyaml.load_file(path)
        if not isinstance(doc, dict) or "runner" not in doc:
            raise PopperError(
                f"{self.experiment}: vars.yml must be a mapping with a 'runner' key"
            )
        return doc

    def _default_inventory(self) -> Inventory:
        from repro.orchestration.connection import ContainerConnection
        from repro.orchestration.inventory import Inventory

        inventory = Inventory()
        inventory.add_host(
            "driver",
            groups=["head"],
            connection=ContainerConnection(name="driver"),
        )
        return inventory

    def run_setup(self) -> None:
        """Execute ``setup.yml`` (skipped if the experiment has none)."""
        path = self.directory / "setup.yml"
        if not path.is_file():
            return
        from repro.orchestration.playbook import Playbook, PlaybookRunner

        playbook = Playbook.from_yaml(path.read_text(encoding="utf-8"))
        inventory = self.inventory or self._default_inventory()
        recap = PlaybookRunner(inventory, extra_vars=self.load_vars()).run(playbook)
        if not recap.ok:
            failures = [
                f"{host}: {result.msg}"
                for name, host, result in recap.task_results
                if result.failed
            ]
            raise PopperError(
                f"{self.experiment}: setup playbook failed ({'; '.join(failures)})"
            )

    def run_experiment(self, variables: dict) -> MetricsTable:
        """Dispatch to the configured runner and persist results.csv."""
        runner = str(variables["runner"])
        table = run_experiment_runner(runner, variables)
        if len(table) == 0:
            raise PopperError(f"{self.experiment}: runner produced no rows")
        atomic_write(
            self.directory / "results.csv",
            table.to_csv().encode("utf-8"),
            durable=False,
            crash_label="pipeline.results",
        )
        return table

    def _run_notebook(self, table: MetricsTable) -> None:
        """Execute the experiment's analysis notebook (``visualize.nb.json``).

        The notebook sees ``results`` (the metrics table), ``figure_path``
        (where to write its rendered figure) and the figure-rendering
        helpers; any cell error fails the pipeline — the paper's "post-
        processing routines can be executed without problems" CI check.
        """
        from repro.figures import (
            bar_chart_svg,
            line_chart_svg,
            series_from_table,
        )
        from repro.notebook import Notebook, execute

        notebook = Notebook.load(self.directory / NOTEBOOK_FILE)
        run = execute(
            notebook,
            namespace={
                "results": table,
                "figure_path": str(self.directory / "figure.svg"),
                "MetricsTable": MetricsTable,
                "series_from_table": series_from_table,
                "line_chart_svg": line_chart_svg,
                "bar_chart_svg": bar_chart_svg,
            },
        )
        if not run.ok:
            raise PopperError(
                f"{self.experiment}: analysis notebook failed:\n{run.first_error}"
            )

    def run_validation(self, table: MetricsTable) -> list[ValidationResult]:
        """Evaluate ``validations.aver`` against *table*.

        The callers, :meth:`run` and :meth:`validate_existing`, write the
        verdicts to ``validation_report.txt``.  Statements run with a
        :class:`~repro.check.context.RegressionContext` bound to the
        repository's profile history, so ``expect
        no_regression(metric)`` judges the current results against the
        pooled baseline of prior commits (vacuously passing on a history
        with no baseline yet).
        """
        path = self.directory / "validations.aver"
        if not path.is_file():
            return []
        context = self._regression_context()
        functions = context.functions() if context is not None else None
        self._last_regression_context = context
        return check_all(path.read_text(encoding="utf-8"), table, context=functions)

    def _regression_context(self):
        """Bind ``no_regression`` to the prior commits' pooled profiles."""
        from repro.check.context import RegressionContext

        try:
            head = self.repo.vcs.head_commit()
        except Exception:
            return None
        if head is None:
            return None
        prior = [
            entry.oid for entry in self.repo.vcs.log("HEAD") if entry.oid != head
        ]
        baseline = self.repo.profile_history.baseline_for(list(reversed(prior)))
        return RegressionContext(baseline, experiment=self.experiment)

    # -- the whole pipeline -------------------------------------------------------------
    def run(self, strict: bool = False, resume: bool = False) -> ExperimentResult:
        """Execute all stages.  With ``strict``, failed validations raise.

        The run's full provenance is journaled to :attr:`journal_path`
        (one JSONL event per span/metric/verdict) even when a stage
        raises — a crashed run leaves a journal up to the failure point.
        With ``resume``, stages whose fingerprint has a successful
        checkpoint in :attr:`run_state_path` are restored (the ``run``
        stage re-reads ``results.csv``) instead of re-executed, and the
        journal is appended to rather than truncated.
        """
        journal = RunJournal(self.journal_path, fresh=not resume)
        tracer = self.tracer
        tracer.journal = journal
        journal.event(
            "run_start",
            experiment=self.experiment,
            resume=resume,
            **self.run_meta,
        )
        status = "error"
        prior_roots = len(tracer.roots())
        try:
            with RunStateStore(self.run_state_path, resume=resume) as store:
                options = RunOptions(
                    retry=self.retry,
                    timeout_s=self.timeout_s,
                    faults=self.faults,
                    run_state=store,
                    artifact_store=self.artifact_store,
                    cancel=self.cancel,
                )
                with activate(tracer):
                    result = self._run_stages(
                        tracer, strict=strict, options=options
                    )
            status = "ok" if result.validated else "validation-failed"
            return result
        except ValidationFailure:
            status = "validation-failed"
            raise
        except RunCancelled:
            # The drain finished — completed stages are checkpointed —
            # so the journal records a clean cancellation, not a crash.
            status = "cancelled"
            raise
        finally:
            tracer.journal = None
            try:
                journal.event(
                    "run_end",
                    status=status,
                    duration_s=sum(
                        s.duration for s in tracer.roots()[prior_roots:]
                    ),
                )
            finally:
                journal.close()

    def _optional_stages(self, variables: dict) -> set[str]:
        """Parse ``optional_stages`` from vars.yml (graceful degradation).

        A stage listed there fails to DEGRADED instead of FAILED: its
        dependents still run and the run's exit status is unaffected.
        ``run`` cannot be optional — every tail consumes its value.
        """
        raw = variables.get("optional_stages", [])
        if raw in (None, ""):
            return set()
        if isinstance(raw, str):
            raw = [raw]
        if not isinstance(raw, list):
            raise PopperError(
                f"{self.experiment}: optional_stages must be a list of stage names"
            )
        stages = {str(s) for s in raw}
        unknown = stages - set(PIPELINE_STAGES)
        if unknown:
            raise PopperError(
                f"{self.experiment}: unknown optional_stages {sorted(unknown)}; "
                f"known stages: {', '.join(PIPELINE_STAGES)}"
            )
        if "run" in stages:
            raise PopperError(
                f"{self.experiment}: the 'run' stage cannot be optional"
            )
        return stages

    def _restore_results(self, detail: dict) -> MetricsTable:
        """Rebuild the ``run`` stage's value from disk on ``--resume``."""
        table = MetricsTable.load_csv(self.directory / "results.csv")
        rows = int(detail.get("rows", len(table)))
        if len(table) != rows:
            raise PopperError(
                f"{self.experiment}: results.csv has {len(table)} rows, "
                f"checkpoint recorded {rows}; re-running"
            )
        return table

    def _file_digest(self, name: str) -> str:
        """Content hash of an experiment file ('' when absent).

        Folded into stage cache keys so editing ``process-result.py`` or
        the analysis notebook invalidates exactly the stages that read
        them.
        """
        path = self.directory / name
        if not path.is_file():
            return ""
        return sha256_text(path.read_text(encoding="utf-8"))

    def stage_graph(self, variables: dict) -> TaskGraph:
        """Declare the lifecycle DAG for one run.

        ``setup → [baseline] → run`` is a chain; ``postprocess``,
        ``visualize`` (when the experiment ships a notebook) and
        ``validate`` all depend only on ``run`` and are mutually
        independent.  The ``run`` stage carries a checkpoint fingerprint
        over the experiment's variables, so an interrupted sweep resumes
        without re-executing it.

        The artifact-producing stages (``baseline``, ``run``,
        ``postprocess``, ``visualize``) are declared through
        :class:`~repro.engine.MemoizedPayload`: when the pipeline holds
        an artifact store, a stage whose cache key (variables plus the
        content of the script it executes) matches a stored record is
        materialized from the content pool instead of executed.
        ``validate`` always re-evaluates — it is cheap and *is* the
        verdict.
        """
        optional = self._optional_stages(variables)
        graph = TaskGraph()
        graph.add(
            "setup", lambda ctx: self.run_setup(), optional="setup" in optional
        )
        run_deps = ("setup",)
        if "baseline" in variables:
            from repro.core.baseline import BASELINE_FILE, check_baseline

            seed = int(variables.get("seed", 42))
            graph.add(
                "baseline",
                MemoizedPayload(
                    fn=lambda ctx: check_baseline(
                        self.directory,
                        variables["baseline"],
                        seed=seed,
                        journal=self.tracer.journal,
                    ),
                    key=task_fingerprint(
                        f"{self.experiment}/baseline",
                        {"spec": variables["baseline"], "seed": seed},
                    ),
                    root=self.directory,
                    outputs=lambda value: {
                        "profile": self.directory / BASELINE_FILE
                    },
                    meta=lambda value: {
                        "fresh": bool(value[0]), "message": str(value[1])
                    },
                    restore=lambda meta: (
                        bool(meta.get("fresh", False)),
                        str(meta.get("message", "")),
                    ),
                ),
                dependencies=("setup",),
                optional="baseline" in optional,
            )
            run_deps = ("baseline",)
        graph.add(
            "run",
            MemoizedPayload(
                fn=lambda ctx: self.run_experiment(variables),
                key=task_fingerprint(f"{self.experiment}/run", variables),
                root=self.directory,
                outputs=lambda table: {
                    "results": self.directory / "results.csv"
                },
                meta=lambda table: {"rows": len(table)},
                restore=self._restore_results,
            ),
            dependencies=run_deps,
            fingerprint=task_fingerprint(f"{self.experiment}/run", variables),
            checkpoint=lambda table: {"rows": len(table)},
            restore=self._restore_results,
        )
        graph.add(
            "postprocess",
            MemoizedPayload(
                fn=lambda ctx: run_postprocess(
                    self.directory, ctx.result("run")
                ),
                key=task_fingerprint(
                    f"{self.experiment}/postprocess",
                    {
                        "vars": variables,
                        "script": self._file_digest(PROCESS_SCRIPT),
                    },
                ),
                root=self.directory,
                outputs=lambda figures: dict(figures),
                meta=lambda figures: {"figures": sorted(figures)},
                restore=lambda meta: {
                    name: self.directory / f"{name}.csv"
                    for name in meta.get("figures", [])
                },
            ),
            dependencies=("run",),
            optional="postprocess" in optional,
        )
        if (self.directory / NOTEBOOK_FILE).is_file():
            graph.add(
                "visualize",
                MemoizedPayload(
                    fn=lambda ctx: self._run_notebook(ctx.result("run")),
                    key=task_fingerprint(
                        f"{self.experiment}/visualize",
                        {
                            "vars": variables,
                            "notebook": self._file_digest(NOTEBOOK_FILE),
                        },
                    ),
                    root=self.directory,
                    outputs=lambda value: {
                        "figure": self.directory / "figure.svg"
                    },
                    meta=lambda value: {},
                    restore=lambda meta: None,
                ),
                dependencies=("run",),
                optional="visualize" in optional,
            )
        graph.add(
            "validate",
            lambda ctx: self.run_validation(ctx.result("run")),
            dependencies=("run",),
            optional="validate" in optional,
        )
        return graph

    def _run_stages(
        self,
        tracer: Tracer,
        strict: bool,
        options: RunOptions | None = None,
    ) -> ExperimentResult:
        journal = tracer.journal
        variables = self.load_vars()
        graph = self.stage_graph(variables)
        with tracer.span(f"pipeline/run/{self.experiment}"):
            recap = SerialScheduler().run(graph, tracer=tracer, options=options)
            # A failed stage fails the run; its dependents were skipped,
            # independent stages already finished and are journaled.
            # DEGRADED stages (declared optional in vars.yml) do not
            # raise: the run completes without their artifacts.
            recap.raise_first_error()

        stage_seconds = {
            stage: recap.outcomes[stage].seconds
            for stage in graph.ids()
            if recap.outcomes[stage].state is TaskState.OK
        }
        table = recap.value("run")
        figures = (
            recap.value("postprocess")
            if recap.outcome("postprocess").ok
            else {}
        )
        validations = (
            recap.value("validate") if recap.outcome("validate").ok else []
        )
        baseline_message = ""
        if "baseline" in graph and recap.outcome("baseline").ok:
            baseline_message = recap.value("baseline")[1]

        result = ExperimentResult(
            experiment=self.experiment,
            results=table,
            validations=validations,
            stage_seconds=stage_seconds,
            figures=dict(figures),
            baseline_message=baseline_message,
            degraded_stages=recap.degraded,
        )
        self._write_report(result)
        for validation in validations:
            if journal is not None:
                journal.event(
                    "aver_verdict",
                    assertion=validation.statement.source,
                    passed=validation.passed,
                    detail=validation.describe(),
                )
        for stage, seconds in stage_seconds.items():
            labels = {"experiment": self.experiment, "stage": stage}
            self.metrics.record("popper.stage_seconds", seconds, labels=labels)
            if journal is not None:
                journal.event(
                    "metric",
                    metric="popper.stage_seconds",
                    value=seconds,
                    labels=labels,
                )
        context = getattr(self, "_last_regression_context", None)
        if context is not None and journal is not None:
            for verdict in context.verdicts:
                journal.event(
                    "degradation",
                    metric=verdict.metric,
                    detector=verdict.detector,
                    change=verdict.change.value,
                    rate=verdict.rate,
                    confidence=verdict.confidence,
                )
            for note in context.notes:
                journal.event("degradation", note=note)
        if result.validated:
            # A healthy run's profile joins the baseline history (a
            # regressed/failed run must not poison future baselines —
            # the same rule the old rolling window applied).
            self._attach_profile(result, journal)
        if strict and not result.validated:
            raise ValidationFailure(
                f"{self.experiment}: domain-specific validations failed:\n"
                + result.report_text()
            )
        return result

    def _attach_profile(self, result: ExperimentResult, journal) -> None:
        """Attach this run's performance profile to the HEAD commit.

        Harvests stage timings from the metric store and numeric result
        columns from the results table (keys
        ``<experiment>/stage/<stage>`` and ``<experiment>/results/<col>``
        — the keys ``no_regression`` and ``popper perf`` resolve).
        Attachment failures are journaled, not raised: a completed run
        is worth more than its profile.
        """
        from repro.check.profiles import harvest_profile
        from repro.common.errors import ReproError

        try:
            head = self.repo.vcs.head_commit()
        except Exception:
            return
        if head is None:
            return
        try:
            profile = harvest_profile(
                head,
                store=self.metrics,
                meta={"experiment": self.experiment, **self.run_meta},
            )
            for column in result.results.columns:
                try:
                    values = result.results.numeric(column)
                except (TypeError, ValueError, KeyError):
                    continue  # string column: nothing to profile
                key = f"{self.experiment}/results/{column}"
                profile.series.setdefault(key, []).extend(
                    float(v) for v in values
                )
            path = self.repo.profile_history.attach(profile)
            if journal is not None:
                journal.event(
                    "profile_attached",
                    commit=head,
                    series=len(profile.series),
                    path=str(path),
                )
        except ReproError as exc:
            if journal is not None:
                journal.event("profile_error", error=str(exc))

    def validate_existing(self) -> ExperimentResult:
        """Re-validate a stored ``results.csv`` without re-running.

        The fresh verdict replaces ``validation_report.txt``, so a cache
        hit or ``--validate-only`` after an edit to ``validations.aver``
        never leaves the old verdict on disk.

        A validated result still attaches its result-column series to
        HEAD: cache-restored runs (the common case for commits that do
        not touch ``vars.yml``) are byte-identical replays, so their
        results are a legitimate performance claim for the new commit —
        without this, only cache-miss commits would ever be profiled
        and ``popper perf`` would have nothing to compare.  Stage
        timings are not harvested here (nothing was timed).
        """
        path = self.directory / "results.csv"
        if not path.is_file():
            raise PopperError(
                f"{self.experiment}: no results.csv; run the experiment first"
            )
        table = MetricsTable.load_csv(path)
        validations = self.run_validation(table)
        result = ExperimentResult(
            experiment=self.experiment, results=table, validations=validations
        )
        self._write_report(result)
        if result.validated:
            self._attach_profile(result, None)
        return result

    def _write_report(self, result: ExperimentResult) -> None:
        """Write ``validation_report.txt``.  Not durable: a re-run or a
        re-validation rebuilds it, and a warm hit that restored the same
        bytes writes nothing."""
        atomic_write(
            self.directory / "validation_report.txt",
            result.report_text().encode("utf-8"),
            durable=False,
            crash_label="pipeline.report",
        )

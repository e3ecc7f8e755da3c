"""The ``popper`` command-line interface (Listing 2 of the paper).

::

    $ popper init
    -- Initialized Popper repo

    $ popper experiment list
    -- available templates ---------------
    ceph-rados        proteustm  mpi-comm-variability
    cloverleaf        gassyfs    zlog
    spark-standalone  torpor     malacology

    $ popper add torpor myexp

Additional verbs: ``check`` (compliance), ``selftest`` (the
toolchain's own scratch-repository checks), ``run`` (pipeline),
``trace`` / ``log`` (render or dump a run's journal), ``cache
stats|verify|gc`` (the artifact store), ``doctor`` (crash-debris scan
and repair), ``paper list|add|build``, ``status``.

Exit codes beyond the usual 0/1/2: an injected crash exits 70
(:data:`~repro.common.crash.EXIT_CRASH`), SIGINT/SIGTERM drain the
in-flight work and exit 130/143 (``128 + signum``) — both states are
resumable with ``popper run --resume``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.common.errors import PopperError, ReproError
from repro.core.repo import PAPER_TEMPLATES, PopperRepository

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popper",
        description="Bootstrap and drive Popper-convention repositories.",
    )
    parser.add_argument(
        "--repo", "-C", default=".", help="repository root (default: cwd)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("init", help="initialize a Popper repository")

    experiment = sub.add_parser("experiment", help="experiment template commands")
    experiment_sub = experiment.add_subparsers(dest="subcommand", required=True)
    experiment_sub.add_parser("list", help="list available templates")

    add = sub.add_parser("add", help="instantiate a template as an experiment")
    add.add_argument("template")
    add.add_argument("name")

    rm = sub.add_parser("rm", help="remove an experiment")
    rm.add_argument("name")

    sub.add_parser("check", help="check convention compliance")
    sub.add_parser(
        "selftest",
        help="check the toolchain itself in scratch repositories: the "
        "degradation detectors, the fuzz loop, the packed store and "
        "the serve daemon",
    )

    run = sub.add_parser("run", help="run experiment pipeline(s)")
    run.add_argument("names", nargs="*", help="experiments to run")
    run.add_argument("--all", action="store_true", help="run every experiment")
    run.add_argument(
        "--strict", action="store_true", help="fail on validation failures"
    )
    run.add_argument(
        "--validate-only",
        action="store_true",
        help="re-validate stored results.csv without re-running",
    )
    run.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run experiments on N worker processes, at most one per "
        "CPU core (default 1: serially, in this process)",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="skip experiments already completed by an interrupted sweep",
    )
    run.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry transient stage failures up to N times (default 0)",
    )
    run.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-stage deadline in seconds (default: none)",
    )
    run.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help="deterministic fault plan, e.g. 'flaky:run:2,delay:setup:0.1' "
        "(modes: flaky/fail/delay/rate; see docs/robustness.md)",
    )
    run.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="SEED",
        help="one seed for every injection surface (fault plan, crash "
        "plan, fuzz randomizer); overrides the POPPER_SEED environment "
        "variable (default 42), and is recorded in the run_start "
        "journal header",
    )
    run.add_argument(
        "--inject-crash",
        default=None,
        metavar="SPEC",
        help="deterministic crash plan, e.g. 'at:cas.ingest.rename:1' "
        "(modes: at/rate; crash points: see docs/robustness.md)",
    )
    run.add_argument(
        "--crash-hard",
        action="store_true",
        help="injected crashes os._exit(70) instead of raising "
        "(the honest kill -9; only with --inject-crash)",
    )
    run.add_argument(
        "--crash-smoke",
        action="store_true",
        help="seeded crash-injection run, popper doctor repair, then "
        "a clean --resume re-run",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore the artifact store: execute every stage even when "
        "a memoized result exists",
    )
    run.add_argument(
        "--cache-check",
        action="store_true",
        help="run the sweep twice against one artifact store and fail "
        "unless the warm pass is >=90%% cache hits with identical "
        "results",
    )

    serve = sub.add_parser(
        "serve",
        help="run the job-queue daemon: a local HTTP API accepting "
        "experiment runs into a crash-tolerant persistent queue "
        "(.pvcs/queue/) executed by supervised worker processes",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="worker processes executing queued jobs (default 2)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=16,
        metavar="M",
        help="admission bound on queued+leased jobs; submissions over "
        "it are shed with HTTP 429 while cache-servable ones still "
        "succeed (default 16)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default 127.0.0.1 — local only)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8999,
        metavar="P",
        help="port to bind; 0 picks a free one (default 8999)",
    )
    serve.add_argument(
        "--lease",
        type=float,
        default=15.0,
        metavar="S",
        help="job lease seconds before an unheartbeated job is "
        "requeued (default 15)",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided scenario fuzzing: mutate experiment "
        "inputs, execute variants in sandbox repos, keep and minimize "
        "the interesting ones under .pvcs/fuzz/",
    )
    fuzz.add_argument(
        "names", nargs="*", help="experiments to fuzz (default: all)"
    )
    fuzz.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="SEED",
        help="campaign seed (default: POPPER_SEED env var, then 42); "
        "the same seed and --iterations reproduce the corpus, the "
        "coverage map and every minimized reproducer byte for byte",
    )
    fuzz.add_argument(
        "--iterations",
        "-n",
        type=int,
        default=16,
        metavar="K",
        help="variants to generate (default 16)",
    )
    fuzz.add_argument(
        "--max-stack",
        type=int,
        default=3,
        metavar="M",
        help="maximum mutations stacked per variant (default 3)",
    )
    fuzz.add_argument(
        "--no-minimize",
        action="store_true",
        help="skip delta-debugging failing variants into minimal "
        "reproducers",
    )

    perf = sub.add_parser(
        "perf",
        help="compare two commits' performance profiles with the "
        "degradation-detector suite",
    )
    perf.add_argument("rev1", help="baseline commit/branch/tag")
    perf.add_argument(
        "rev2",
        nargs="?",
        default="HEAD",
        help="candidate commit/branch/tag (default HEAD)",
    )
    perf.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        metavar="R",
        help="relative degradation threshold (default 0.10 = 10%%)",
    )
    perf.add_argument(
        "--all-verdicts",
        action="store_true",
        help="print every detector verdict, not only suspicious ones",
    )

    trace = sub.add_parser(
        "trace", help="render an experiment's run journal (timings, critical path)"
    )
    trace.add_argument(
        "name", nargs="?", help="experiment whose last run to inspect"
    )
    trace.add_argument(
        "--fuzz",
        action="store_true",
        help="summarize the last fuzz campaign's journal "
        "(.pvcs/fuzz/journal.jsonl) instead of an experiment run",
    )
    trace.add_argument(
        "--serve",
        action="store_true",
        help="summarize the serve queue's journal "
        "(.pvcs/queue/journal.jsonl) instead of an experiment run",
    )

    log = sub.add_parser(
        "log", help="print an experiment's run journal events"
    )
    log.add_argument("name", help="experiment whose last run to inspect")
    log.add_argument(
        "--raw", action="store_true", help="print raw JSONL instead of one-liners"
    )

    paper = sub.add_parser("paper", help="manuscript commands")
    paper_sub = paper.add_subparsers(dest="subcommand", required=True)
    paper_sub.add_parser("list", help="list manuscript templates")
    paper_add = paper_sub.add_parser("add", help="add a manuscript template")
    paper_add.add_argument("template", nargs="?", default="generic-article")
    paper_sub.add_parser("build", help="build the manuscript")

    ci = sub.add_parser("ci", help="run the repository's CI build locally")
    ci.add_argument("--ref", default="HEAD", help="commit/branch/tag to build")
    ci.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run matrix jobs on N worker processes, at most one per "
        "CPU core (default 1: serially, in this process)",
    )
    ci.add_argument(
        "--resume",
        action="store_true",
        help="skip matrix jobs already green for the same commit and env",
    )
    ci.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="SEED",
        help="export POPPER_SEED to every matrix job so in-process "
        "popper runs (fault and crash plans) share one seed",
    )

    cache = sub.add_parser(
        "cache", help="administer the content-addressed artifact store"
    )
    cache_sub = cache.add_subparsers(dest="subcommand", required=True)
    cache_sub.add_parser(
        "stats", help="object, record and dedup accounting for the pools"
    )
    cache_sub.add_parser(
        "verify",
        help="fsck every pool: quarantine corrupt objects, report referrers",
    )
    cache_gc = cache_sub.add_parser(
        "gc", help="drop old artifact records and sweep unreferenced objects"
    )
    cache_gc.add_argument(
        "--keep-last",
        type=int,
        default=1,
        metavar="N",
        help="records to keep per task, newest first (default 1)",
    )
    cache_repack = cache_sub.add_parser(
        "repack",
        help="fold loose objects (and old packs) into one fresh packfile "
        "per pool; reads stay byte-identical, fsyncs drop to one per pack",
    )
    cache_repack.add_argument(
        "--min-objects",
        type=int,
        default=2,
        metavar="N",
        help="skip pools holding fewer than N objects (default 2)",
    )

    doctor = sub.add_parser(
        "doctor",
        help="scan .pvcs/ for crash debris (stale locks, orphan temps, "
        "torn journals, partial index records) and repair it",
    )
    doctor.add_argument(
        "--dry-run",
        action="store_true",
        help="report findings without repairing anything",
    )
    doctor.add_argument(
        "--tmp-age",
        type=float,
        default=60.0,
        metavar="S",
        help="minimum age before an orphan temp file is swept "
        "(default 60s; younger temps may belong to a live writer)",
    )

    bundle = sub.add_parser(
        "bundle", help="export the repository as a single artifact file"
    )
    bundle.add_argument("output", help="bundle file to write")
    bundle.add_argument("--ref", default="HEAD")

    unbundle = sub.add_parser(
        "unbundle", help="recreate a repository from a bundle"
    )
    unbundle.add_argument("bundle_file")
    unbundle.add_argument("target")

    sub.add_parser(
        "notebooks",
        help="re-run every analysis notebook on stored results (Binder-style)",
    )

    sub.add_parser("status", help="show repository status")
    return parser


def _cmd_init(args) -> int:
    PopperRepository.init(args.repo)
    print("-- Initialized Popper repo")
    return 0


def _cmd_experiment_list(args) -> int:
    from repro.core.templates import list_templates

    print("-- available templates ---------------")
    templates = list_templates()
    names = [t.name for t in templates]
    # three-column layout like the paper's listing
    rows = (len(names) + 2) // 3
    width = max(len(n) for n in names) + 2
    for row in range(rows):
        chunk = names[row::rows]
        print("".join(name.ljust(width) for name in chunk).rstrip())
    return 0


def _cmd_add(args) -> int:
    repo = PopperRepository.open(args.repo)
    target = repo.add_experiment(args.template, args.name)
    print(f"-- Added experiment {args.name} from template {args.template}")
    print(f"   {target}")
    return 0


def _cmd_rm(args) -> int:
    repo = PopperRepository.open(args.repo)
    repo.remove_experiment(args.name)
    print(f"-- Removed experiment {args.name}")
    return 0


def _cmd_check(args) -> int:
    from repro.core.check import check_repository

    repo = PopperRepository.open(args.repo)
    report = check_repository(repo)
    print(report.describe(), end="")
    return 0 if report.compliant else 1


#: The toolchain's self-checks as ``(module, function)``.  Each builds
#: its own scratch repository or pool and returns a summary line.  The
#: lookup happens when ``popper selftest`` runs, so no other command
#: imports the fuzz, store or serve code.
_SELF_CHECKS = (
    ("repro.check.smoke", "perf_smoke"),
    ("repro.fuzz", "fuzz_smoke"),
    ("repro.store.smoke", "store_smoke"),
    ("repro.serve", "serve_smoke"),
)


def _cmd_selftest(args) -> int:
    """``popper selftest``: run every self-check; exit 1 if any failed.

    A failed check is reported and the next one still runs, so one CI
    job gives all four verdicts.  The repository is never opened.
    """
    import importlib

    failed = False
    for module, function in _SELF_CHECKS:
        check = getattr(importlib.import_module(module), function)
        try:
            print("-- " + check())
        except ReproError as exc:
            print(f"-- {function} FAILED: {exc}")
            failed = True
    return 1 if failed else 0


def _effective_seed(args) -> int:
    """One seed for every injection surface: ``--seed`` wins, then the
    ``POPPER_SEED`` environment variable (how ``popper ci --seed``
    reaches in-process matrix jobs), then 42."""
    explicit = getattr(args, "seed", None)
    if explicit is not None:
        return int(explicit)
    env = os.environ.get("POPPER_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise PopperError(
                f"POPPER_SEED must be an integer, got {env!r}"
            ) from None
    return 42


def _cmd_run(args) -> int:
    """Run experiments as independent nodes of a task graph.

    Each experiment journals into its own ``journal.jsonl``.  A failing
    experiment (``PopperError``) is reported as ERRORED and the rest of
    the sweep keeps running; exit status aggregates across the sweep
    (0 all ok, 1 validation failures, 2 errored experiments).

    ``-j 1`` runs serially in this process; ``-j N`` runs on up to N
    worker processes (one per core at most), started on the first
    experiment the cache cannot serve.

    Resilience: ``--retries``/``--task-timeout`` set stage-level retry
    and deadline policies, ``--inject-faults`` applies a deterministic
    chaos plan, and ``--resume`` restores experiments a previous
    (interrupted) sweep already completed from ``.pvcs/sweep-state.jsonl``.
    """
    from repro.common.crash import (
        EXIT_CRASH,
        CrashPlan,
        SimulatedCrash,
        install_crash_plan,
    )
    from repro.common.errors import ValidationFailure, WorkerCrashError
    from repro.core.pipeline import ExperimentPipeline
    from repro.core.sweep import (
        SweepExperimentJob,
        sweep_key,
        sweep_meta,
        sweep_outputs,
    )
    from repro.engine import (
        CancelToken,
        FaultPlan,
        GracefulShutdown,
        MemoizedPayload,
        RunCancelled,
        RunOptions,
        RunStateStore,
        TaskGraph,
        TaskState,
        resolve_backend,
    )

    repo = PopperRepository.open(args.repo)

    seed = _effective_seed(args)
    names = list(args.names)
    if args.all:
        names = repo.experiments()
        if not names:
            print("-- no experiments registered; nothing to run")
            return 0
    if not names:
        print("popper run: name at least one experiment (or --all)", file=sys.stderr)
        return 2

    if args.retries < 0:
        raise PopperError(f"--retries must be >= 0, got {args.retries}")
    if args.inject_faults:
        FaultPlan.parse(args.inject_faults, seed=seed)  # validate early

    if args.jobs < 1:
        raise PopperError(f"--jobs must be >= 1, got {args.jobs}")
    scheduler, workers, warning = resolve_backend(args.jobs)
    if warning:
        print(f"-- {warning}", file=sys.stderr)

    if args.cache_check and (args.no_cache or args.validate_only):
        raise PopperError(
            "--cache-check exercises the artifact store; it cannot be "
            "combined with --no-cache or --validate-only"
        )
    crash_spec = args.inject_crash
    if args.crash_smoke:
        if args.cache_check or args.validate_only or args.crash_hard:
            raise PopperError(
                "--crash-smoke orchestrates crash+doctor+resume in one "
                "process; it cannot be combined with --cache-check, "
                "--validate-only or --crash-hard"
            )
        crash_spec = crash_spec or "at:runstate.append.torn:1"
    if args.crash_hard and not crash_spec:
        raise PopperError("--crash-hard needs --inject-crash")
    if crash_spec:
        CrashPlan.parse(crash_spec, seed=seed)  # validate early
    # Cross-run memoization is on by default; --no-cache executes every
    # stage, and --validate-only never touches the store.
    use_cache = not args.no_cache and not args.validate_only
    artifact_store = repo.artifact_store if use_cache else None

    cancel = CancelToken()

    def experiment_task(name: str):
        # Plain data rather than a closure, so the process backend can
        # ship it to a worker; bound to the open repo and cancel token
        # for a serial run (dropped on pickle).
        return SweepExperimentJob(
            repo_root=str(repo.root),
            name=name,
            strict=args.strict,
            resume=args.resume,
            validate_only=args.validate_only,
            retries=args.retries,
            task_timeout=args.task_timeout,
            fault_spec=args.inject_faults,
            fault_seed=seed,
            use_cache=use_cache,
            backend=scheduler.backend,
            workers=workers,
        ).bind(repo=repo, cancel=cancel)

    def sweep_restore(name: str):
        def restore(detail: dict):
            # Re-validates the stored results.csv without re-executing;
            # raising (e.g. deleted results) falls back to a real run.
            return ExperimentPipeline(repo, name).validate_existing()

        return restore

    def sweep_payload(name: str, key: str):
        """The task payload for one experiment of the sweep.

        With the cache on, the whole experiment is memoized under *key*
        (its :func:`sweep_key`): a warm run materializes
        ``results.csv``, the figure artifacts and the reports from the
        content pool and only re-evaluates the (cheap) validations.
        """
        payload = experiment_task(name)
        if artifact_store is None:
            return payload
        return MemoizedPayload(
            fn=payload,
            key=key,
            root=repo.root,
            outputs=lambda result: sweep_outputs(repo, name, result.figures),
            meta=lambda result: sweep_meta(len(result.results), result.validated),
            # Re-validate the materialized results: an edited
            # validations.aver yields a fresh verdict even on a hit.
            restore=sweep_restore(name),
        )

    state_path = repo.root / ".pvcs" / "sweep-state.jsonl"

    def build_graph() -> TaskGraph:
        graph = TaskGraph()
        for name in names:
            if args.validate_only:
                graph.add(name, experiment_task(name))
            else:
                key = sweep_key(repo, name)
                graph.add(
                    name,
                    sweep_payload(name, key),
                    fingerprint=key,
                    # Only validated successes are worth caching; a run
                    # that completed with validation failures re-runs on
                    # resume.
                    checkpoint=lambda result: (
                        {"validated": True, "rows": len(result.results)}
                        if result.validated
                        else None
                    ),
                    restore=sweep_restore(name),
                )
        return graph

    recaps = []  # every sweep this command ran

    def execute(resume: bool):
        with RunStateStore(state_path, resume=resume) as store:
            options = RunOptions(
                run_state=store,
                artifact_store=artifact_store,
                cancel=cancel,
            )
            recaps.append(scheduler.run(build_graph(), options=options))
            return recaps[-1]

    def report(recap) -> int:
        exit_code = 0
        for name in names:
            outcome = recap.outcome(name)
            if outcome.ok:
                result = outcome.value
                status = "ok" if result.validated else "VALIDATION FAILED"
                cached = (
                    " (cached)"
                    if outcome.restored or outcome.state is TaskState.CACHED
                    else ""
                )
                print(
                    f"-- {name}: {len(result.results)} result rows, "
                    f"{status}{cached}"
                )
                for stage in result.degraded_stages:
                    print(f"   degraded: optional stage {stage} failed")
                for validation in result.validations:
                    print("   " + validation.describe().replace("\n", "\n   "))
                if not result.validated:
                    exit_code = max(exit_code, 1)
            elif isinstance(outcome.error, ValidationFailure):
                print(f"-- {name}: VALIDATION FAILED (strict)")
                print("   " + str(outcome.error).replace("\n", "\n   "))
                exit_code = max(exit_code, 1)
            elif isinstance(outcome.error, ReproError):
                print(f"-- {name}: ERRORED ({outcome.error})")
                exit_code = max(exit_code, 2)
            else:
                # A non-repro exception is a bug, not an experiment outcome.
                raise outcome.error
        return exit_code

    def drive() -> int:
        recap = execute(args.resume)
        exit_code = report(recap)
        if not args.cache_check:
            return exit_code

        # Warm pass: same sweep again against the store the cold pass
        # just filled.  The CI warm-cache job fails unless (almost)
        # everything is served from cache with byte-identical results.
        def results_bytes() -> dict[str, bytes]:
            snapshots = {}
            for name in names:
                path = repo.experiment_dir(name) / "results.csv"
                snapshots[name] = path.read_bytes() if path.is_file() else b""
            return snapshots

        cold = results_bytes()
        warm_recap = execute(resume=False)
        exit_code = max(exit_code, report(warm_recap))
        warm = results_bytes()
        hits = sum(
            1
            for name in names
            if warm_recap.outcome(name).state is TaskState.CACHED
        )
        rate = hits / len(names)
        differing = sorted(name for name in names if cold[name] != warm[name])
        if rate >= 0.9 and not differing and exit_code == 0:
            print(
                f"-- cache check: {hits}/{len(names)} experiments served "
                "from cache; results identical"
            )
            return exit_code
        reasons = [f"{hits}/{len(names)} cache hits"]
        if differing:
            reasons.append(f"results differ for {', '.join(differing)}")
        print(f"-- cache check FAILED: {'; '.join(reasons)}")
        return max(exit_code, 1)

    def drive_with_crashes() -> int:
        """One sweep under the installed crash plan; 70 when it fires.

        A plan that never fired says so and keeps the sweep's status.
        A hard crash in a worker process ends only that worker, with
        status 70, and its experiment reports the death.
        """
        plan = CrashPlan.parse(
            crash_spec, seed=seed, hard=args.crash_hard
        )
        previous = install_crash_plan(plan)
        try:
            code = drive()
        except SimulatedCrash as crash:
            print(
                f"-- simulated crash at {crash.point} (hit {crash.hit}); "
                "run `popper doctor`, then `popper run --resume`"
            )
            return EXIT_CRASH
        finally:
            install_crash_plan(previous)
        if not any(
            isinstance(outcome.error, WorkerCrashError)
            and outcome.error.exitcode == EXIT_CRASH
            for recap in recaps
            for outcome in recap.outcomes.values()
        ):
            print(f"-- crash plan never fired: {crash_spec}")
        return code

    def crash_smoke() -> int:
        """crash -> doctor -> resume, the CI robustness job."""
        from repro.store.doctor import diagnose, repair

        code = drive_with_crashes()
        if code != EXIT_CRASH:
            return max(code, 1) if code else 1
        doctor_report = repair(diagnose(repo.root, tmp_age_s=0.0))
        print(doctor_report.describe(), end="")
        if doctor_report.unrepaired:
            print("-- crash smoke FAILED: doctor left damage unrepaired")
            return 1
        recap = execute(resume=True)
        code = report(recap)
        verify = repo.artifact_store.verify() if use_cache else None
        if verify is not None and not verify.ok:
            print("-- crash smoke FAILED: artifact store corrupt after resume")
            return max(code, 1)
        if code == 0:
            print("-- crash smoke: crashed, repaired, resumed clean")
        return code

    guard = GracefulShutdown(cancel)
    try:
        with guard:
            if args.crash_smoke:
                return crash_smoke()
            if crash_spec:
                return drive_with_crashes()
            return drive()
    except RunCancelled as cancelled:
        resume_hint = "--all" if args.all else " ".join(names)
        print(
            f"-- {cancelled}; completed tasks are checkpointed"
            f" (resume with: popper run {resume_hint} --resume)"
        )
        return cancelled.exit_code if guard.exit_code == 0 else guard.exit_code


def _journal_events(args):
    from repro.monitor.journal import JOURNAL_FILE, load_journal

    repo = PopperRepository.open(args.repo)
    if args.name not in repo.config.experiments:
        raise PopperError(f"no such experiment: {args.name!r}")
    path = repo.experiment_dir(args.name) / JOURNAL_FILE
    if not path.is_file():
        raise PopperError(
            f"{args.name}: no run journal yet; `popper run {args.name}` first"
        )
    return load_journal(path)


def _cmd_serve(args) -> int:
    """``popper serve``: the crash-tolerant job-queue daemon.

    Foreground until SIGINT/SIGTERM, then a graceful drain: admission
    stops (503), leased jobs finish, the queue journal checkpoints, and
    the process exits 130/143 — every accepted job either completed or
    survives in ``.pvcs/queue/`` for the next daemon to re-admit.
    """
    from repro.engine import CancelToken, GracefulShutdown
    from repro.serve import PopperServer

    repo = PopperRepository.open(args.repo)
    daemon = PopperServer(
        repo,
        workers=args.workers,
        max_queue=args.max_queue,
        host=args.host,
        port=args.port,
        lease_s=args.lease,
    )
    cancel = CancelToken()
    try:
        with GracefulShutdown(cancel) as guard:
            daemon.start()
            print(
                f"-- popper serve on http://{daemon.host}:{daemon.port} "
                f"({args.workers} worker(s), queue bound {args.max_queue})"
            )
            print(
                '   POST /v1/jobs {"experiment": NAME} to submit; '
                "GET /healthz; Ctrl-C drains"
            )
            daemon.run_until(cancel)
            print("-- draining: finishing leased jobs, checkpointing the queue")
    finally:
        daemon.drain()
    stats = daemon.queue.stats()
    print(
        f"-- served {stats['states']['done']} job(s) "
        f"({stats['cache_served']} cache-served, {stats['shed']} shed); "
        f"{stats['states']['queued']} left queued for the next daemon"
    )
    return guard.exit_code


def _cmd_trace(args) -> int:
    from repro.monitor.report import render_fuzz_summary, render_report

    if args.serve:
        from repro.monitor.journal import load_journal
        from repro.monitor.report import render_serve_summary
        from repro.serve import QUEUE_DIR

        repo = PopperRepository.open(args.repo)
        path = repo.vcs.meta / QUEUE_DIR / "journal.jsonl"
        if not path.is_file():
            raise PopperError(
                "no serve queue journal yet; `popper serve` first"
            )
        events, skipped = load_journal(path)
        print(render_serve_summary(events, skipped=skipped), end="")
        return 0
    if args.fuzz:
        from repro.fuzz import FUZZ_DIR
        from repro.monitor.journal import load_journal

        repo = PopperRepository.open(args.repo)
        path = repo.vcs.meta / FUZZ_DIR / "journal.jsonl"
        if not path.is_file():
            raise PopperError(
                "no fuzz campaign journal yet; `popper fuzz` first"
            )
        events, skipped = load_journal(path)
        print(render_fuzz_summary(events, skipped=skipped), end="")
        return 0
    if not args.name:
        print("popper trace: name an experiment (or use --fuzz)", file=sys.stderr)
        return 2
    events, skipped = _journal_events(args)
    print(render_report(events, skipped=skipped), end="")
    return 0


def _cmd_log(args) -> int:
    import json

    events, skipped = _journal_events(args)
    if not args.raw:
        run_start = next(
            (e for e in events if e.get("event") == "run_start"), None
        )
        if run_start is not None:
            header = f"-- run: {run_start.get('experiment', '?')}"
            if run_start.get("backend"):
                header += f"   backend: {run_start['backend']}"
                if run_start.get("workers"):
                    header += f" ({run_start['workers']} workers)"
            print(header)
    for event in events:
        if args.raw:
            print(json.dumps(event))
            continue
        kind = event.get("event", "?")
        detail = " ".join(
            f"{k}={v}"
            for k, v in event.items()
            if k not in ("seq", "ts", "event", "attributes", "detail")
        )
        print(f"[{event.get('seq', '?'):>4}] {kind:<12} {detail}".rstrip())
    if skipped and not args.raw:
        print(f"-- {skipped} torn trailing line skipped (crashed append)")
    return 0


def _cmd_perf(args) -> int:
    """``popper perf <rev1> [rev2]``: detector verdicts between commits.

    Loads the commit-attached profiles of both revisions from
    ``.pvcs/profiles/``, runs the three-detector suite over every shared
    series, and prints the verdict table.  Exit status: 0 when no firm
    degradation, 1 when at least one detector is certain, 2 on usage
    errors (unknown revision, missing profile).
    """
    from repro.check import DetectorSuite, PerformanceChange, default_suite
    from repro.common.errors import CheckError, ObjectNotFound, VcsError

    repo = PopperRepository.open(args.repo)

    def resolve(ref: str) -> str:
        try:
            return repo.vcs.resolve(ref)
        except ObjectNotFound as exc:
            raise PopperError(
                f"popper perf: unknown revision {ref!r} "
                "(no branch, tag, or commit prefix matches)"
            ) from exc
        except VcsError as exc:
            raise PopperError(
                f"popper perf: cannot resolve revision {ref!r}: {exc}"
            ) from exc

    old = resolve(args.rev1)
    new = resolve(args.rev2)
    history = repo.profile_history
    try:
        baseline = history.require(old)
        candidate = history.require(new)
    except CheckError as exc:
        profiled = history.commits()
        hint = (
            "profiled commits: "
            + ", ".join(c[:12] for c in profiled[-5:])
            if profiled
            else "no commits have profiles yet"
        )
        raise PopperError(f"popper perf: {exc} ({hint})") from exc

    suite = default_suite(threshold=args.threshold)
    verdicts = suite.compare_series(baseline.series, candidate.series)
    span = ""
    try:
        between = repo.vcs.commits_between(old, new)
        span = f" ({len(between)} commit{'s' if len(between) != 1 else ''} apart)"
    except VcsError:
        pass  # unrelated revisions still compare profile-to-profile
    print(f"== perf: {old[:12]} -> {new[:12]}{span}")

    shown = verdicts
    if not args.all_verdicts:
        quiet = (
            PerformanceChange.NO_CHANGE,
            PerformanceChange.OPTIMIZATION,
            PerformanceChange.MAYBE_OPTIMIZATION,
            PerformanceChange.UNKNOWN,
        )
        shown = [v for v in verdicts if v.change not in quiet]
        unknown = sum(
            1 for v in verdicts if v.change is PerformanceChange.UNKNOWN
        )
        hidden = len(verdicts) - len(shown) - unknown
        if unknown:
            print(
                f"-- {unknown} series not comparable "
                "(missing from one profile or too few samples)"
            )
        if hidden:
            print(f"-- {hidden} unremarkable verdicts hidden (--all-verdicts shows them)")
    if shown:
        print(DetectorSuite.to_table(shown).to_text(), end="")
    firm = [v for v in verdicts if v.change is PerformanceChange.DEGRADATION]
    maybes = [
        v for v in verdicts if v.change is PerformanceChange.MAYBE_DEGRADATION
    ]
    if firm:
        metrics = sorted({v.metric for v in firm})
        print(f"-- DEGRADATION in {len(metrics)} metric(s): {', '.join(metrics)}")
        return 1
    if maybes:
        print(f"-- no firm degradation ({len(maybes)} maybe-verdicts above)")
    else:
        print("-- no degradation detected")
    return 0


def _cmd_paper(args) -> int:
    repo = PopperRepository.open(args.repo)
    if args.subcommand == "list":
        print("-- available paper templates ---------")
        for name in sorted(PAPER_TEMPLATES):
            print(name)
        return 0
    if args.subcommand == "add":
        repo.add_paper(args.template)
        print(f"-- Added paper template {args.template}")
        return 0
    if args.subcommand == "build":
        output = repo.build_paper()
        print(f"-- Built {output}")
        return 0
    raise PopperError(f"unknown paper subcommand {args.subcommand!r}")


def _cmd_ci(args) -> int:
    from repro.core.ci_integration import make_ci_server

    repo = PopperRepository.open(args.repo)
    server = make_ci_server(repo, jobs=args.jobs)
    if server.warning:
        print(f"-- {server.warning}", file=sys.stderr)
    # Matrix jobs run `popper run ...` in-process (this process, or a pool
    # worker started from it); exporting POPPER_SEED is how one `--seed`
    # reaches every job's fault/crash/fuzz surfaces.
    previous = os.environ.get("POPPER_SEED")
    if args.seed is not None:
        os.environ["POPPER_SEED"] = str(args.seed)
    try:
        record = server.trigger(args.ref, resume=args.resume)
    finally:
        if args.seed is not None:
            if previous is None:
                os.environ.pop("POPPER_SEED", None)
            else:
                os.environ["POPPER_SEED"] = previous
    print(f"-- build #{record.number} on {record.commit[:12]}: {record.status.value}")
    for job in record.jobs:
        env = " ".join(f"{k}={v}" for k, v in job.env.items()) or "<default env>"
        verdict = "ok" if job.ok else "FAILED"
        if job.restored:
            verdict += " (cached)"
        print(f"   job [{env}]: {verdict}")
        if job.error:
            print(f"     {job.error}")
        for step in job.steps:
            marker = "ok " if step.ok else "ERR"
            print(f"     [{marker}] {step.phase}: {step.command}")
            if not step.ok and step.stderr.strip():
                print("          " + step.stderr.strip().splitlines()[0])
    if record.perf:
        from repro.check import PerformanceChange

        firm = [
            v for v in record.perf if v.change is PerformanceChange.DEGRADATION
        ]
        print(
            f"-- perf: {len(record.perf)} detector verdicts vs baseline, "
            f"{len(firm)} firm degradation(s)"
        )
        for verdict in firm:
            print(f"   {verdict}")
    print(f"-- {server.badge()}")
    return 0 if record.ok else 1


def _cmd_fuzz(args) -> int:
    """``popper fuzz``: a seeded coverage-guided campaign over this
    repository's experiments.  Exit 1 when failing variants were found
    (their minimized reproducers are under ``.pvcs/fuzz/repro/``)."""
    from repro.fuzz import FUZZ_DIR, FuzzCampaign
    from repro.monitor.journal import RunJournal

    repo = PopperRepository.open(args.repo)
    campaign = FuzzCampaign(
        repo,
        seed=_effective_seed(args),
        iterations=args.iterations,
        experiments=args.names or None,
        max_stack=args.max_stack,
        do_minimize=not args.no_minimize,
    )
    journal = RunJournal(repo.vcs.meta / FUZZ_DIR / "journal.jsonl")
    try:
        report = campaign.run(journal=journal)
    finally:
        journal.close()
    print(report.describe(), end="")
    if report.failures:
        print(
            f"-- {report.failures} failing variant(s); reproducers under "
            f"{campaign.state_root / 'repro'}"
        )
        return 1
    return 0


def _cmd_cache(args) -> int:
    """``popper cache stats|verify|gc``: artifact-store administration."""
    repo = PopperRepository.open(args.repo)
    store = repo.artifact_store
    if args.subcommand == "stats":
        stats = store.stats()
        print(f"-- artifact cache ({store.root})")
        print(
            f"   objects: {stats['objects']} ({stats['bytes']} bytes, "
            f"{stats['quarantined']} quarantined)"
        )
        print(
            f"   loose: {stats['loose_objects']} "
            f"({stats['loose_bytes']} bytes); "
            f"packed: {stats['packed_objects']} "
            f"({stats['packed_bytes']} bytes in {stats['pack_files']} "
            f"pack(s), {stats['pack_deltas']} delta-encoded)"
        )
        print(f"   records: {stats['records']} across {stats['tasks']} tasks")
        print(
            f"   logical bytes: {stats['logical_bytes']} "
            f"({stats['bytes_deduped']} deduped, "
            f"{stats['dedup_ratio']:.2f}x dedup ratio incl. pack deltas)"
        )
        vcs_stats = repo.vcs.store.cas.stats()
        print(f"-- vcs object pool ({repo.vcs.store.root})")
        print(
            f"   objects: {vcs_stats['objects']} ({vcs_stats['bytes']} bytes, "
            f"{vcs_stats['quarantined']} quarantined)"
        )
        print(
            f"   loose: {vcs_stats['loose_objects']} "
            f"({vcs_stats['loose_bytes']} bytes); "
            f"packed: {vcs_stats['packed_objects']} "
            f"({vcs_stats['packed_bytes']} bytes in "
            f"{vcs_stats['pack_files']} pack(s), "
            f"{vcs_stats['pack_deltas']} delta-encoded)"
        )
        return 0
    if args.subcommand == "repack":
        report = store.repack(min_objects=args.min_objects)
        print(f"-- artifact cache ({store.root})")
        print("   " + report.describe().replace("\n", "\n   ").rstrip())
        vcs_report = repo.vcs.store.cas.repack(min_objects=args.min_objects)
        print(f"-- vcs object pool ({repo.vcs.store.root})")
        print("   " + vcs_report.describe().replace("\n", "\n   ").rstrip())
        return 0
    if args.subcommand == "verify":
        report = store.verify()
        print(f"-- artifact cache: {report.healthy_objects} objects healthy")
        for oid, referrers in sorted(report.corrupt.items()):
            blame = "; ".join(referrers) or "unreferenced"
            print(f"   corrupt (quarantined): {oid[:12]} <- {blame}")
        vcs_bad = repo.vcs.fsck()
        healthy_vcs = sum(1 for _ in repo.vcs.store.ids())
        print(f"-- vcs object pool: {healthy_vcs} objects healthy")
        if vcs_bad:
            blame_map = repo.vcs.referrers(set(vcs_bad))
            for oid in sorted(vcs_bad):
                blame = "; ".join(blame_map.get(oid, [])) or "unreferenced"
                print(f"   corrupt (quarantined): {oid[:12]} <- {blame}")
        ok = report.ok and not vcs_bad
        print(f"-- verify: {'clean' if ok else 'CORRUPTION FOUND'}")
        return 0 if ok else 1
    if args.subcommand == "gc":
        gc = store.gc(keep_last=args.keep_last)
        print(
            f"-- gc: kept {args.keep_last} record(s) per task; removed "
            f"{gc.records_removed} records, {gc.objects_removed} objects "
            f"({gc.bytes_reclaimed} bytes reclaimed)"
        )
        return 0
    raise PopperError(f"unknown cache subcommand {args.subcommand!r}")


def _cmd_doctor(args) -> int:
    """``popper doctor [--dry-run]``: crash-debris scan and repair.

    Dry-run exits 1 when findings exist (so CI can gate on cleanliness);
    a repair pass exits 1 only when damage could not be repaired.
    """
    from repro.store.doctor import diagnose, repair

    repo = PopperRepository.open(args.repo)
    report = diagnose(repo.root, tmp_age_s=args.tmp_age)
    if not args.dry_run:
        repair(report)
    print(report.describe(), end="")
    if args.dry_run:
        return 0 if report.clean else 1
    return 1 if report.unrepaired else 0


def _cmd_bundle(args) -> int:
    from repro.core.bundle import create_bundle

    repo = PopperRepository.open(args.repo)
    manifest = create_bundle(repo, args.output, ref=args.ref)
    print(
        f"-- bundled {manifest['files']} files ({manifest['bytes']} bytes) "
        f"at {manifest['commit'][:12]} -> {args.output}"
    )
    return 0


def _cmd_unbundle(args) -> int:
    from repro.core.bundle import unbundle

    repo = unbundle(args.bundle_file, args.target)
    print(f"-- recreated Popper repository at {repo.root}")
    print(f"   experiments: {', '.join(repo.experiments()) or '<none>'}")
    return 0


def _cmd_notebooks(args) -> int:
    from repro.core.binder import rerun_notebooks

    repo = PopperRepository.open(args.repo)
    statuses = rerun_notebooks(repo)
    exit_code = 0
    for status in statuses:
        if not status.ran:
            marker = "--" if status.ok else "!!"
        else:
            marker = "ok" if status.ok else "!!"
        detail = f" ({status.detail})" if status.detail else ""
        print(f"[{marker}] {status.experiment}{detail}")
        if not status.ok:
            exit_code = 1
    return exit_code


def _cmd_status(args) -> int:
    repo = PopperRepository.open(args.repo)
    print(f"Popper repository at {repo.root}")
    print(f"paper template: {repo.config.paper_template or '<none>'}")
    for name in repo.experiments():
        template = repo.config.experiments[name]
        has_results = (repo.experiment_dir(name) / "results.csv").is_file()
        state = "ran" if has_results else "never ran"
        print(f"  {name}  (from {template}, {state})")
    vcs_status = repo.vcs.status()
    print("working tree:", "clean" if vcs_status.clean else "dirty")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "init": _cmd_init,
        "add": _cmd_add,
        "rm": _cmd_rm,
        "check": _cmd_check,
        "selftest": _cmd_selftest,
        "run": _cmd_run,
        "serve": _cmd_serve,
        "fuzz": _cmd_fuzz,
        "perf": _cmd_perf,
        "trace": _cmd_trace,
        "log": _cmd_log,
        "paper": _cmd_paper,
        "ci": _cmd_ci,
        "cache": _cmd_cache,
        "doctor": _cmd_doctor,
        "bundle": _cmd_bundle,
        "unbundle": _cmd_unbundle,
        "notebooks": _cmd_notebooks,
        "status": _cmd_status,
    }
    try:
        if args.command == "experiment":
            return _cmd_experiment_list(args)
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"popper: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

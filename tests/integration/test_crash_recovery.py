"""The acceptance loop of the crash-consistency layer: for every
registered crash point, kill → ``popper doctor`` → ``popper run --all``
yields byte-identical results and a clean ``cache verify``.

Also covers the CLI surface (``--inject-crash``, ``--crash-smoke``,
``doctor`` exit codes) and signal-driven cancellation of a live sweep.
"""

import ast
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.common.crash import (
    CRASH_LABELS,
    EXIT_CRASH,
    RUN_CRASH_POINTS,
    CrashPlan,
    SimulatedCrash,
    install_crash_plan,
)
from repro.common.fsutil import is_atomic_temp
from repro.core.cli import main
from repro.core.repo import PopperRepository
from repro.core.sweep import sweep_key
from repro.engine import EXIT_SIGTERM

SRC = Path(__file__).resolve().parents[2] / "src"
TORPOR_VARS = "runner: torpor-variability\nruns: 2\nseed: 11\n"


def make_repo(path, names=("one",)):
    path.mkdir()
    assert main(["-C", str(path), "init"]) == 0
    for name in names:
        assert main(["-C", str(path), "add", "torpor", name]) == 0
        (path / "experiments" / name / "vars.yml").write_text(TORPOR_VARS)
    return path


@pytest.fixture
def repo_dir(tmp_path):
    return make_repo(tmp_path / "crashy-repo")


@pytest.fixture(scope="module")
def control_results(tmp_path_factory):
    """results.csv bytes from an undisturbed run (torpor is seeded, so
    every correct recovery must reproduce these exactly)."""
    path = make_repo(tmp_path_factory.mktemp("control") / "control-repo")
    assert main(["-C", str(path), "run", "--all"]) == 0
    return (path / "experiments" / "one" / "results.csv").read_bytes()


class TestCrashDoctorResume:
    @pytest.mark.parametrize("point", RUN_CRASH_POINTS)
    def test_kill_repair_resume_is_byte_identical(
        self, repo_dir, control_results, point, capsys
    ):
        args = ["-C", str(repo_dir)]
        assert (
            main([*args, "run", "--all", "--inject-crash", f"at:{point}:1"])
            == EXIT_CRASH
        )
        out = capsys.readouterr().out
        assert f"simulated crash at {point} (hit 1)" in out
        assert "popper doctor" in out  # the recovery hint

        assert main([*args, "doctor", "--tmp-age", "0"]) == 0
        assert main([*args, "run", "--all"]) == 0
        results = repo_dir / "experiments" / "one" / "results.csv"
        assert results.read_bytes() == control_results
        capsys.readouterr()
        assert main([*args, "cache", "verify"]) == 0
        assert main([*args, "doctor", "--dry-run", "--tmp-age", "0"]) == 0

    def test_every_point_in_one_unlucky_run(
        self, repo_dir, control_results, capsys
    ):
        """Crash, repair and re-crash at the next point, once per
        registered point — recovery composes."""
        args = ["-C", str(repo_dir)]
        for hit, point in enumerate(RUN_CRASH_POINTS, start=1):
            code = main(
                [*args, "run", "--all", "--inject-crash", f"at:{point}:1"]
            )
            assert code in (EXIT_CRASH, 0), (point, code)
            assert main([*args, "doctor", "--tmp-age", "0"]) == 0
        assert main([*args, "run", "--all"]) == 0
        results = repo_dir / "experiments" / "one" / "results.csv"
        assert results.read_bytes() == control_results
        capsys.readouterr()
        assert main([*args, "cache", "verify"]) == 0


def _writes_a_file(call):
    """Whether *call* is a plain whole-file write (see the scan below)."""
    func = call.func
    name = getattr(func, "attr", getattr(func, "id", None))
    owner = getattr(getattr(func, "value", None), "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if owner == "shutil":
        return name.startswith("copy")
    if name not in ("open", "fdopen") or owner == "os" and name == "open":
        return False
    # A method ``path.open(mode)`` takes the mode first; ``open(path,
    # mode)``, ``os.fdopen(fd, mode)`` and ``io.open`` second.
    position = 1 if isinstance(func, ast.Name) or owner in ("os", "io") else 0
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None and len(call.args) > position:
        mode = call.args[position]
    return (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and any(flag in mode.value for flag in "wax")
    )


class TestCrashPointCoverage:
    def test_a_sweep_consults_exactly_the_run_crash_points(
        self, repo_dir, monkeypatch
    ):
        """A durable write added to the sweep path fails this test until
        its crash points join the crash -> doctor -> re-run matrix."""
        consulted = set()
        check = CrashPlan.check

        def recording_check(plan, point):
            consulted.add(point)
            check(plan, point)

        monkeypatch.setattr(CrashPlan, "check", recording_check)
        args = ["-C", str(repo_dir), "run", "--all", "--inject-crash", "rate:*:0"]
        assert main(args) == 0
        assert consulted == set(RUN_CRASH_POINTS)

    def test_the_fuzz_grammar_targets_the_run_crash_points(self):
        """A fuzz variant runs one pipeline, so its crash grammar names
        exactly the points that run can reach (globs aside)."""
        from repro.fuzz.mutators import _CRASH_TARGETS

        literal = {t for t in _CRASH_TARGETS if "*" not in t}
        assert literal == set(RUN_CRASH_POINTS)

    def test_only_the_write_primitives_write_temps_fsync_or_crash(self):
        """Whole files go through atomic_write and ledgers through
        GroupCommitWriter; each names its crash points from its label.
        A hand-rolled temp file, fsync or crash point elsewhere in the
        package is a write site the crash matrix cannot see, and so is a
        plain write: ``write_text``/``write_bytes``, ``open``/``fdopen``
        in a ``w``, ``a`` or ``x`` mode, or ``shutil.copy*``.  The source
        is parsed, not grepped: templates hold notebook code strings that
        write files.  Lock files stay out by construction (``os.open``,
        and doctor's ``r+b``): they must keep their inode."""
        package = SRC / "repro"
        primitives = {
            package / "common" / "fsutil.py",
            package / "common" / "groupcommit.py",
        }
        pattern = re.compile(r"\bmkstemp\(|\bos\.fsync\(|\bcrashpoint\(")
        offenders = []
        for path in sorted(package.rglob("*.py")):
            if path in primitives:
                continue
            source = path.read_text(encoding="utf-8")
            for number, line in enumerate(source.splitlines(), start=1):
                if path.name == "crash.py" and line.startswith("def crashpoint("):
                    continue
                if pattern.search(line):
                    offenders.append(f"{path.relative_to(SRC)}:{number}")
            offenders += [
                f"{path.relative_to(SRC)}:{node.lineno}"
                for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Call) and _writes_a_file(node)
            ]
        assert offenders == []

    def test_every_crash_label_is_in_the_table_and_used(self):
        """Each label a write site passes (as ``crash_label=`` or as the
        default of a ``crash_label`` parameter) is tabled in
        ``repro.common.crash``, and each tabled label is passed."""
        used = set()
        for path in sorted((SRC / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    used |= {
                        kw.value.value
                        for kw in node.keywords
                        if kw.arg == "crash_label"
                        and isinstance(kw.value, ast.Constant)
                    }
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args
                    params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
                    defaults = [None] * (
                        len(args.posonlyargs) + len(args.args) - len(args.defaults)
                    ) + [*args.defaults, *args.kw_defaults]
                    used |= {
                        default.value
                        for param, default in zip(params, defaults)
                        if param.arg == "crash_label"
                        and isinstance(default, ast.Constant)
                    }
        tabled = [label.name for label in CRASH_LABELS]
        assert len(tabled) == len(set(tabled))
        assert used == set(tabled)

    def test_the_docs_table_lists_the_crash_labels(self):
        """docs/robustness.md tables every label with its primitive."""
        docs = (SRC.parent / "docs" / "robustness.md").read_text(encoding="utf-8")
        rows = docs.split("| label | primitive | write site |\n|---|---|---|\n")[1]
        documented = {}
        for row in rows.split("\n\n")[0].splitlines():
            labels, primitive = row.split("|")[1:3]
            for label in re.findall(r"`([^`]+)`", labels):
                documented[label] = primitive.strip().strip("`")
        assert documented == {
            label.name: label.primitive for label in CRASH_LABELS
        }


class TestPackCrashRecovery:
    """The two mid-packfile hazards: crash with the pack temp written
    and between the pack's rename and its index write.  Both must be
    repairable by popper doctor with a byte-identical warm run
    afterwards."""

    @pytest.mark.parametrize("point", ["pack.write.tmp", "pack.write.rename"])
    def test_repack_crash_doctor_rerun_is_byte_identical(
        self, repo_dir, control_results, point, capsys
    ):
        args = ["-C", str(repo_dir)]
        assert main([*args, "run", "--all"]) == 0
        results = repo_dir / "experiments" / "one" / "results.csv"
        assert results.read_bytes() == control_results

        store = PopperRepository.open(repo_dir).artifact_store
        install_crash_plan(CrashPlan.parse(f"at:{point}:1"))
        try:
            with pytest.raises(SimulatedCrash):
                store.repack()
        finally:
            install_crash_plan(None)

        assert main([*args, "doctor", "--tmp-age", "0"]) == 0
        assert main([*args, "doctor", "--dry-run", "--tmp-age", "0"]) == 0
        capsys.readouterr()
        assert main([*args, "cache", "verify"]) == 0

        # The warm re-run serves from the (possibly packed) store and
        # reproduces the control bytes exactly.
        results.unlink()
        assert main([*args, "run", "--all"]) == 0
        assert results.read_bytes() == control_results


class TestRepackedWarmRun:
    def test_warm_run_from_a_fully_packed_store_is_byte_identical(
        self, repo_dir, capsys
    ):
        args = ["-C", str(repo_dir)]
        assert main([*args, "run", "--all"]) == 0
        results = repo_dir / "experiments" / "one" / "results.csv"
        control = results.read_bytes()

        assert main([*args, "cache", "repack"]) == 0
        store = PopperRepository.open(repo_dir).artifact_store
        stats = store.stats()
        assert stats["loose_objects"] == 0
        assert stats["packed_objects"] > 0

        results.unlink()
        capsys.readouterr()
        assert main([*args, "run", "--all"]) == 0
        out = capsys.readouterr().out
        assert "(cached)" in out  # served from the packed store
        assert results.read_bytes() == control
        assert main([*args, "cache", "verify"]) == 0
        assert main([*args, "doctor", "--dry-run", "--tmp-age", "0"]) == 0


class TestMaterializeCrash:
    def test_working_tree_temp_is_found_by_doctor_and_never_staged(
        self, repo_dir, capsys
    ):
        """A crash mid-materialize leaves its temp beside the output, in
        the working tree: doctor reports it once past the age gate, and
        staging the tree never picks it up."""
        args = ["-C", str(repo_dir)]
        assert main([*args, "run", "--all"]) == 0
        # A warm hit leaves a file that already holds its bytes alone.
        (repo_dir / "experiments" / "one" / "results.csv").unlink()
        crash = ["--inject-crash", "at:cas.materialize.tmp:1"]
        assert main([*args, "run", "--all", *crash]) == EXIT_CRASH
        exp_dir = repo_dir / "experiments" / "one"
        [temp] = [p for p in exp_dir.iterdir() if p.name.startswith(".")]

        vcs = PopperRepository.open(repo_dir).vcs
        vcs.add_all()
        assert temp.relative_to(repo_dir).as_posix() not in vcs.index.entries

        assert main([*args, "doctor", "--dry-run"]) == 0  # too young
        capsys.readouterr()
        doctor = [*args, "doctor", "--tmp-age", "0"]
        assert main([*doctor, "--dry-run"]) == 1
        assert f"orphan-temp: {temp}" in capsys.readouterr().out
        assert main(doctor) == 0
        assert not temp.exists()
        assert main([*doctor, "--dry-run"]) == 0


class TestRefsCrash:
    def test_torn_ref_update_never_happens(self, repo_dir, tmp_path):
        """refs.update.tmp fires with the new ref's temp written and
        durable but not yet renamed over the ref, so the old ref
        survives intact and the commit is simply absent.  The temp sits
        beside the ref until doctor sweeps it, and is never listed as a
        branch."""
        repo = PopperRepository.open(repo_dir)
        branch, before = repo.vcs.refs.head()
        (repo_dir / "experiments" / "one" / "vars.yml").write_text(
            TORPOR_VARS + "# touched\n"
        )
        install_crash_plan(CrashPlan.parse("at:refs.update.tmp:1"))
        try:
            repo.vcs.add_all()
            with pytest.raises(SimulatedCrash):
                repo.vcs.commit("doomed commit")
        finally:
            install_crash_plan(None)
        heads = repo_dir / ".pvcs" / "refs" / "heads"
        assert [p.name for p in heads.iterdir() if p.name.startswith(".")]
        reopened = PopperRepository.open(repo_dir)
        assert reopened.vcs.refs.head() == (branch, before)
        assert reopened.vcs.refs.branches() == [branch]
        clone = reopened.vcs.clone(tmp_path / "clone")
        assert clone.refs.branches() == [branch]
        assert clone.refs.head() == (branch, before)
        # The young temp is spared by doctor's age gate; the ref write
        # itself left nothing to repair.
        assert main(["-C", str(repo_dir), "doctor", "--dry-run"]) == 0
        reopened.vcs.add_all()
        reopened.vcs.commit("retry lands")
        assert reopened.vcs.refs.head()[1] != before


class TestVcsIndexCrash:
    def test_crash_mid_index_save_keeps_the_previous_index(self, repo_dir):
        """A save cut short must never leave a half-written staging
        index: a cut line would make every popper command fail to open
        the repository."""
        index_path = repo_dir / ".pvcs" / "index"
        before = index_path.read_bytes()
        staged = dict(PopperRepository.open(repo_dir).vcs.index.entries)
        assert staged
        (repo_dir / "experiments" / "one" / "vars.yml").write_text(
            TORPOR_VARS + "# touched\n"
        )
        install_crash_plan(CrashPlan.parse("at:vcs.index.tmp:1"))
        try:
            with pytest.raises(SimulatedCrash):
                PopperRepository.open(repo_dir).vcs.add_all()
        finally:
            install_crash_plan(None)
        assert index_path.read_bytes() == before
        assert PopperRepository.open(repo_dir).vcs.index.entries == staged
        args = ["-C", str(repo_dir), "doctor", "--tmp-age", "0"]
        assert main([*args, "--dry-run"]) == 1
        assert main(args) == 0
        assert not [
            p for p in index_path.parent.iterdir() if p.name.startswith(".index.")
        ]
        assert main([*args, "--dry-run"]) == 0


class TestConfigCrash:
    def test_crash_mid_config_save_keeps_the_experiment_list(self, repo_dir):
        """``.popper.yml`` is replaced whole: a crash mid-save leaves the
        old list (an emptied file used to read as "nothing to run")."""
        config = repo_dir / ".popper.yml"
        before = config.read_bytes()
        install_crash_plan(CrashPlan.parse("at:config.save.tmp:1"))
        try:
            with pytest.raises(SimulatedCrash):
                PopperRepository.open(repo_dir).add_experiment("torpor", "two")
        finally:
            install_crash_plan(None)
        assert config.read_bytes() == before
        assert PopperRepository.open(repo_dir).experiments() == ["one"]
        [temp] = [p for p in repo_dir.iterdir() if is_atomic_temp(p.name)]
        assert main(["-C", str(repo_dir), "doctor", "--tmp-age", "0"]) == 0
        assert not temp.exists()


class TestDoctorRewriteCrash:
    def test_doctor_killed_mid_repair_leaves_the_ledger_whole(self, tmp_path):
        from repro.common.groupcommit import read_jsonl
        from repro.store.doctor import diagnose, repair

        ledger = tmp_path / ".pvcs" / "queue" / "journal.jsonl"
        ledger.parent.mkdir(parents=True)
        # A sealed fragment mid-file: a reopened writer appended after it.
        ledger.write_bytes(b'{"a": 1}\n{"b": \n\n{"c": 3}\n')
        before = ledger.read_bytes()
        install_crash_plan(CrashPlan.parse("at:doctor.rewrite.tmp:1"))
        try:
            with pytest.raises(SimulatedCrash):
                repair(diagnose(tmp_path, tmp_age_s=0))
        finally:
            install_crash_plan(None)
        assert ledger.read_bytes() == before
        report = repair(diagnose(tmp_path, tmp_age_s=0))
        assert sorted(f.kind for f in report.findings) == [
            "orphan-temp",
            "torn-jsonl",
        ]
        assert not report.unrepaired
        assert read_jsonl(ledger) == ([{"a": 1}, {"c": 3}], 0)
        assert diagnose(tmp_path, tmp_age_s=0).clean


class TestCrashSmokeCli:
    def test_crash_smoke_full_cycle(self, repo_dir, capsys):
        assert main(["-C", str(repo_dir), "run", "--all", "--crash-smoke"]) == 0
        out = capsys.readouterr().out
        assert "simulated crash at profiles.attach.torn" in out
        assert "-- doctor:" in out
        assert "torn-jsonl" in out
        assert "crash smoke: crashed, repaired, re-ran clean" in out

    def test_crash_smoke_fails_when_plan_never_fires(self, repo_dir, capsys):
        code = main(
            [
                "-C",
                str(repo_dir),
                "run",
                "--all",
                "--crash-smoke",
                "--inject-crash",
                "at:no.such.point:1",
            ]
        )
        assert code == 1
        assert "plan never fired" in capsys.readouterr().out

    def test_a_plan_that_never_fires_says_so(self, repo_dir, capsys):
        # A one-experiment torpor run ingests nothing into the store.
        spec = "at:cas.ingest.tmp:1"
        code = main(
            ["-C", str(repo_dir), "run", "--all", "--no-cache", "--inject-crash", spec]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("-- one: 24 result rows, ok")
        assert out[-1] == f"-- crash plan never fired: {spec}"

    def test_a_plan_that_fires_prints_only_the_crash(self, repo_dir, capsys):
        code = main(
            ["-C", str(repo_dir), "run", "--all", "--inject-crash",
             "at:profiles.attach.torn:1"]
        )
        assert code == EXIT_CRASH
        assert capsys.readouterr().out.splitlines() == [
            "-- simulated crash at profiles.attach.torn (hit 1); "
            "run `popper doctor`, then `popper run --all`"
        ]

    def test_a_hard_crash_in_a_worker_counts_as_fired(self, repo_dir, capsys):
        # The worker exits with status 70; the sweep goes on without it.
        code = main(
            ["-C", str(repo_dir), "run", "--all", "-j", "2", "--inject-crash",
             "at:pipeline.results.tmp:1", "--crash-hard"]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "-- one: ERRORED (worker process 0 died (exit code 70)" in out
        assert "never fired" not in out

    def test_crash_smoke_rejects_conflicting_modes(self, repo_dir, capsys):
        code = main(
            ["-C", str(repo_dir), "run", "--all", "--crash-smoke", "--cache-check"]
        )
        assert code == 2
        assert "cannot be combined" in capsys.readouterr().err

    def test_crash_hard_requires_a_spec(self, repo_dir, capsys):
        code = main(["-C", str(repo_dir), "run", "--all", "--crash-hard"])
        assert code == 2
        assert "--inject-crash" in capsys.readouterr().err

    def test_bad_crash_spec_rejected_before_any_work(self, repo_dir, capsys):
        code = main(
            ["-C", str(repo_dir), "run", "--all", "--inject-crash", "sometimes:x:1"]
        )
        assert code == 2
        assert not (repo_dir / "experiments" / "one" / "results.csv").exists()


class TestDoctorCli:
    def test_dry_run_reports_without_touching(self, repo_dir, capsys):
        journal = repo_dir / "experiments" / "one" / "journal.jsonl"
        journal.write_text('{"event": "ok"}\n{"event": "to')
        assert main(["-C", str(repo_dir), "doctor", "--dry-run"]) == 1
        out = capsys.readouterr().out
        assert "torn-jsonl" in out
        assert journal.read_text() == '{"event": "ok"}\n{"event": "to'

    def test_repair_then_clean(self, repo_dir, capsys):
        journal = repo_dir / "experiments" / "one" / "journal.jsonl"
        journal.write_text('{"event": "ok"}\n{"event": "to')
        assert main(["-C", str(repo_dir), "doctor"]) == 0
        assert "repaired" in capsys.readouterr().out
        assert journal.read_text() == '{"event": "ok"}\n'
        assert main(["-C", str(repo_dir), "doctor", "--dry-run"]) == 0


#: The child slows down the *second* experiment only: the signal lands
#: while "two" is mid-payload, after "one" completed and was filed.
SLOW_RUN = (
    "import sys, time\n"
    "from pathlib import Path\n"
    "import repro.core.runners as runners\n"
    "real = runners.EXPERIMENT_RUNNERS['torpor-variability']\n"
    "calls = []\n"
    "def slow(variables):\n"
    "    calls.append(1)\n"
    "    if len(calls) == 2:\n"
    "        Path(sys.argv[2]).touch()\n"
    "        time.sleep(3.0)\n"
    "    return real(variables)\n"
    "runners.EXPERIMENT_RUNNERS['torpor-variability'] = slow\n"
    "from repro.core.cli import main\n"
    "sys.exit(main(['-C', sys.argv[1], 'run', '--all']))\n"
)


def filed(repo_dir, names):
    """The experiments whose whole run the artifact index holds."""
    repo = PopperRepository.open(repo_dir)
    store = repo.artifact_store
    return [name for name in names if store.lookup(sweep_key(repo, name))]


def snapshot(repo_dir, name):
    """An experiment's results and run journal, byte for byte."""
    exp_dir = repo_dir / "experiments" / name
    return [(exp_dir / f).read_bytes() for f in ("results.csv", "journal.jsonl")]


class TestSignalledSweep:
    def test_sigterm_drains_checkpoints_and_resumes(self, tmp_path, capsys):
        """SIGTERM mid-sweep: the in-flight experiment drains, the exit
        code is 143, and a plain re-run serves the completed work from
        the artifact store instead of re-executing it."""
        repo_dir = make_repo(tmp_path / "signalled-repo", names=("one", "two"))
        marker = tmp_path / "started"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", SLOW_RUN, str(repo_dir), str(marker)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.monotonic() + 60
        while not marker.exists():
            assert time.monotonic() < deadline, "runner never started"
            assert proc.poll() is None, "sweep died before being signalled"
            time.sleep(0.02)
        time.sleep(0.2)  # land the signal mid-payload, not mid-startup
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == EXIT_SIGTERM, out
        assert "run cancelled by SIGTERM; finish with: popper run --all" in out

        # The first experiment finished before the signal and is filed
        # in the artifact index; the interrupted one is not.
        assert filed(repo_dir, ("one", "two")) == ["one"]
        before = snapshot(repo_dir, "one")

        # The re-run serves it from the store instead of re-executing
        # and finishes the interrupted one.
        assert main(["-C", str(repo_dir), "run", "--all"]) == 0
        rerun = capsys.readouterr().out
        assert "(cached)" in rerun.split("-- two:")[0]
        assert "(cached)" not in rerun.split("-- two:")[1]
        assert snapshot(repo_dir, "one") == before
        assert (repo_dir / "experiments" / "two" / "results.csv").is_file()
        assert main(["-C", str(repo_dir), "cache", "verify"]) == 0

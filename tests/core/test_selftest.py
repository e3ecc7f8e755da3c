"""``popper selftest`` and the default CI matrix that runs it."""

import shlex

import repro.check.smoke
import repro.fuzz
import repro.serve
import repro.store.smoke
from repro.ci.config import CIConfig
from repro.common.errors import StoreError
from repro.core.cli import build_parser, main
from repro.core.repo import DEFAULT_TRAVIS


def test_default_ci_matrix_jobs_parse_as_popper_commands():
    """Every script line of every job is a command the CLI accepts, so
    a template naming a missing flag fails here, not in `popper ci`."""
    config = CIConfig.from_yaml(DEFAULT_TRAVIS)
    jobs = config.expand_matrix()
    assert [env["POPPER_JOB"] for env in jobs] == [
        "run --all --validate-only",
        "run --all --retries 3 --inject-faults flaky:run:2",
        "run --all --cache-check",
        "run --all --crash-smoke",
        "run --all -j 2",
        "selftest",
    ]
    parser = build_parser()
    for env in jobs:
        for line in config.script:
            for key, value in env.items():
                line = line.replace(f"${{{key}}}", value)
            argv = shlex.split(line)
            assert argv[0] == "popper"
            parser.parse_args(argv[1:])


def test_selftest_runs_every_check_without_a_repository(tmp_path, capsys):
    assert main(["-C", str(tmp_path / "no-repo"), "selftest"]) == 0
    out = capsys.readouterr().out
    for summary in (
        "perf smoke ok",
        "stable metric clean",
        "fuzz smoke ok",
        "known-bad caught",
        "store smoke:",
        "publish crash repaired",
        "serve smoke ok",
        "kill -9 recovered",
    ):
        assert summary in out


def test_selftest_reports_a_failed_check_and_runs_the_rest(monkeypatch, capsys):
    def broken():
        raise StoreError("pack index unreadable")

    monkeypatch.setattr(repro.check.smoke, "perf_smoke", lambda: "perf stub")
    monkeypatch.setattr(repro.fuzz, "fuzz_smoke", lambda: "fuzz stub")
    monkeypatch.setattr(repro.store.smoke, "store_smoke", broken)
    monkeypatch.setattr(repro.serve, "serve_smoke", lambda: "serve stub")
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "-- store_smoke FAILED: pack index unreadable" in out
    for stub in ("perf stub", "fuzz stub", "serve stub"):
        assert f"-- {stub}" in out

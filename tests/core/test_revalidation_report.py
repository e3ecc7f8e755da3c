"""A re-validation rewrites ``validation_report.txt`` with its verdict.

A warm ``popper run`` and ``--validate-only`` both re-evaluate
``validations.aver`` against the stored ``results.csv`` without
re-running.  After an edit to the validations, the report on disk must
carry the new verdict, not the one the first run wrote.
"""

import pytest

from repro.core.cli import main

TORPOR_VARS = "runner: torpor-variability\nruns: 2\nseed: 11\n"


@pytest.fixture
def experiment(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    assert main(["-C", str(repo), "init"]) == 0
    assert main(["-C", str(repo), "add", "torpor", "one"]) == 0
    exp = repo / "experiments" / "one"
    (exp / "vars.yml").write_text(TORPOR_VARS)
    assert main(["-C", str(repo), "run", "--all"]) == 0
    return repo, exp


@pytest.mark.parametrize(
    "flags", [[], ["--validate-only"]], ids=["cached", "validate-only"]
)
def test_failing_revalidation_rewrites_the_report(experiment, capsys, flags):
    repo, exp = experiment
    passed = (exp / "validation_report.txt").read_bytes()
    assert passed.endswith(b"ALL VALIDATIONS PASSED\n")
    with (exp / "validations.aver").open("a") as handle:
        handle.write("\nexpect speedup > 1000000\n")
    capsys.readouterr()

    assert main(["-C", str(repo), "run", "--all", *flags]) == 1
    assert "VALIDATION FAILED" in capsys.readouterr().out
    report = (exp / "validation_report.txt").read_text()
    assert report.endswith("VALIDATION FAILURES\n")
    assert "expect speedup > 1000000" in report


def test_unchanged_verdict_rewrites_the_same_bytes(experiment, capsys):
    repo, exp = experiment
    before = (exp / "validation_report.txt").read_bytes()
    assert main(["-C", str(repo), "run", "--all"]) == 0
    assert "(cached)" in capsys.readouterr().out
    assert (exp / "validation_report.txt").read_bytes() == before

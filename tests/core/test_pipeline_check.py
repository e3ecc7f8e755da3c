"""Tests for the experiment pipeline and compliance checker."""

import pytest

from repro.common.errors import PopperError, ValidationFailure
from repro.common.fsutil import write_text
from repro.core.check import check_repository
from repro.core.cli import main
from repro.core.pipeline import ExperimentPipeline
from repro.core.repo import PopperRepository
from repro.monitor.metrics import MetricStore


@pytest.fixture
def repo(tmp_path):
    return PopperRepository.init(tmp_path / "paper-repo")


def fast_vars(repo, name, extra=""):
    """Shrink a torpor experiment for test speed."""
    write_text(
        repo.experiment_dir(name) / "vars.yml",
        "runner: torpor-variability\nruns: 2\nseed: 7\n" + extra,
    )


class TestPipeline:
    def test_full_run_produces_artifacts(self, repo):
        repo.add_experiment("torpor", "myexp")
        fast_vars(repo, "myexp")
        result = ExperimentPipeline(repo, "myexp").run()
        assert result.validated
        assert (repo.experiment_dir("myexp") / "results.csv").is_file()
        report = (repo.experiment_dir("myexp") / "validation_report.txt").read_text()
        assert "ALL VALIDATIONS PASSED" in report
        assert {"setup", "run", "postprocess", "visualize", "validate"} <= set(
            result.stage_seconds
        )

    def test_unknown_experiment(self, repo):
        with pytest.raises(PopperError):
            ExperimentPipeline(repo, "ghost")

    def test_missing_vars(self, repo):
        repo.add_experiment("torpor", "x")
        (repo.experiment_dir("x") / "vars.yml").unlink()
        with pytest.raises(PopperError, match="vars.yml"):
            ExperimentPipeline(repo, "x").run()

    def test_vars_without_runner(self, repo):
        repo.add_experiment("torpor", "x")
        write_text(repo.experiment_dir("x") / "vars.yml", "foo: 1\n")
        with pytest.raises(PopperError, match="runner"):
            ExperimentPipeline(repo, "x").run()

    def test_unknown_runner(self, repo):
        repo.add_experiment("torpor", "x")
        write_text(repo.experiment_dir("x") / "vars.yml", "runner: warpdrive\n")
        with pytest.raises(PopperError, match="unknown runner"):
            ExperimentPipeline(repo, "x").run()

    def test_strict_mode_raises_on_failed_validation(self, repo):
        repo.add_experiment("torpor", "x")
        fast_vars(repo, "x")
        write_text(
            repo.experiment_dir("x") / "validations.aver",
            "expect speedup > 100\n",
        )
        with pytest.raises(ValidationFailure):
            ExperimentPipeline(repo, "x").run(strict=True)

    def test_non_strict_reports_failure(self, repo):
        repo.add_experiment("torpor", "x")
        fast_vars(repo, "x")
        write_text(
            repo.experiment_dir("x") / "validations.aver",
            "expect speedup > 100\n",
        )
        result = ExperimentPipeline(repo, "x").run(strict=False)
        assert not result.validated
        assert "VALIDATION FAILURES" in result.report_text()

    def test_builtin_over_a_string_column_is_a_failed_validation(self, repo):
        repo.add_experiment("torpor", "x")
        fast_vars(repo, "x")
        write_text(
            repo.experiment_dir("x") / "validations.aver",
            "expect speedup > 1\nexpect avg(class) > 1\n",
        )
        assert main(["-C", str(repo.root), "run", "x"]) == 1
        report = (repo.experiment_dir("x") / "validation_report.txt").read_text()
        assert "[FAIL] <all rows> (avg(): argument 0 is not numeric)" in report
        assert report.endswith("VALIDATION FAILURES\n")

    def test_setup_playbook_failure_aborts(self, repo):
        repo.add_experiment("torpor", "x")
        fast_vars(repo, "x")
        write_text(
            repo.experiment_dir("x") / "setup.yml",
            "- hosts: all\n  tasks:\n    - name: boom\n      command: {cmd: nosuchbinary}\n",
        )
        with pytest.raises(PopperError, match="setup playbook failed"):
            ExperimentPipeline(repo, "x").run()

    def test_validate_existing_without_results(self, repo):
        repo.add_experiment("torpor", "x")
        with pytest.raises(PopperError, match="results.csv"):
            ExperimentPipeline(repo, "x").validate_existing()

    def test_validate_existing_round_trip(self, repo):
        repo.add_experiment("torpor", "x")
        fast_vars(repo, "x")
        ExperimentPipeline(repo, "x").run()
        result = ExperimentPipeline(repo, "x").validate_existing()
        assert result.validated

    def test_stage_metrics_recorded(self, repo):
        repo.add_experiment("torpor", "x")
        fast_vars(repo, "x")
        store = MetricStore()
        ExperimentPipeline(repo, "x", metrics=store).run()
        stages = set(
            store.to_table("popper.stage_seconds").column("stage")
        )
        assert {"setup", "run", "postprocess", "validate"} <= stages

    def test_bww_pipeline_end_to_end(self, repo):
        repo.add_experiment("jupyter-bww", "airtemp-analysis")
        write_text(
            repo.experiment_dir("airtemp-analysis") / "vars.yml",
            "runner: bww-airtemp\nyears: 1\nlat_step: 10.0\nlon_step: 15.0\nseed: 3\n",
        )
        result = ExperimentPipeline(repo, "airtemp-analysis").run()
        assert result.validated
        assert set(result.results.column("season")) == {"DJF", "MAM", "JJA", "SON"}


class TestCompliance:
    def test_fresh_repo_compliant(self, repo):
        report = check_repository(repo)
        assert report.compliant

    def test_experiment_warnings_before_run(self, repo):
        repo.add_experiment("torpor", "x")
        report = check_repository(repo)
        assert report.compliant
        assert any("results.csv" in str(f) for f in report.warnings)

    def test_missing_required_file_is_error(self, repo):
        repo.add_experiment("torpor", "x")
        (repo.experiment_dir("x") / "validations.aver").unlink()
        report = check_repository(repo)
        assert not report.compliant
        assert any("validations.aver" in str(f) for f in report.errors)

    def test_missing_travis_is_error(self, repo):
        (repo.root / ".travis.yml").unlink()
        report = check_repository(repo)
        assert any(".travis.yml" in str(f) for f in report.errors)

    def test_registered_but_missing_folder(self, repo):
        repo.add_experiment("torpor", "x")
        repo.config.experiments["ghost"] = "torpor"
        report = check_repository(repo)
        assert any("folder missing" in str(f) for f in report.errors)

    def test_unregistered_folder_warns(self, repo):
        (repo.experiments_dir / "stray").mkdir(parents=True)
        (repo.experiments_dir / "stray" / "note.txt").write_text("hi")
        report = check_repository(repo)
        assert any("not in .popper.yml" in str(f) for f in report.findings)

    def test_untracked_files_warn(self, repo):
        (repo.root / "scratch.txt").write_text("temp")
        report = check_repository(repo)
        assert any("untracked" in str(f) for f in report.warnings)

    def test_bad_vars_yaml_is_error(self, repo):
        repo.add_experiment("torpor", "x")
        write_text(repo.experiment_dir("x") / "vars.yml", "a:\n\tb: tab\n")
        report = check_repository(repo)
        assert any("unparsable" in str(f) for f in report.errors)

    def test_describe_output(self, repo):
        assert "compliant" in check_repository(repo).describe()

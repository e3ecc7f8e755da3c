"""The campaign loop end-to-end against a real (tiny) repository."""

import pytest

from repro.common import minyaml
from repro.common.errors import FuzzError
from repro.core.cli import main
from repro.core.repo import PopperRepository
from repro.fuzz import Corpus, FuzzCampaign, Scenario, VariantRunner, fuzz_smoke
from repro.fuzz.oracle import SEVERITY_FAILURE, judge


@pytest.fixture
def repo(tmp_path):
    repo = PopperRepository.init(tmp_path / "repo")
    repo.add_experiment("torpor", "exp")
    vars_path = repo.experiment_dir("exp") / "vars.yml"
    doc = minyaml.load_file(vars_path)
    doc["runs"] = 2  # keep sandboxed pipeline runs cheap
    minyaml.dump_file(doc, vars_path)
    return repo


class TestCampaign:
    def test_rejects_empty_budget(self, repo):
        with pytest.raises(FuzzError):
            FuzzCampaign(repo, iterations=0)

    def test_rejects_unknown_experiment(self, repo):
        with pytest.raises(FuzzError):
            FuzzCampaign(repo, experiments=["nope"])

    def test_coverage_records_of_the_wrong_shape_are_skipped(self, repo):
        state = repo.vcs.meta / "fuzz"
        state.mkdir(parents=True)
        (state / "coverage.jsonl").write_text(
            '{"keys": 5}\n["event:metric"]\n{"keys": ["event:run_end"]}\n'
        )
        campaign = FuzzCampaign(repo, seed=5, iterations=1, do_minimize=False)
        assert campaign.coverage.keys() == {"event:run_end"}

    def test_campaign_executes_scores_and_admits(self, repo):
        campaign = FuzzCampaign(repo, seed=5, iterations=4, do_minimize=False)
        report = campaign.run()
        assert report.executed >= 1
        assert report.coverage_size >= 1
        assert sum(report.outcomes.values()) == report.executed
        # interesting-or-novel variants land in the corpus as runnable
        # experiment directories
        for variant in campaign.corpus.variants():
            entry = campaign.corpus.load(variant)
            assert entry.scenario.name == "exp"

    def test_rerun_with_same_seed_deduplicates(self, repo):
        FuzzCampaign(repo, seed=5, iterations=4, do_minimize=False).run()
        report = FuzzCampaign(
            repo, seed=5, iterations=4, do_minimize=False
        ).run()
        # Already-seen variants are skipped, not re-executed; the rest
        # of the budget explores on from the admitted corpus (the first
        # run's survivors are new mutation bases — coverage guidance).
        assert report.duplicates >= 1
        assert report.executed + report.duplicates == 4

    def test_second_fuzz_knows_the_corpus_from_its_entries(
        self, repo, monkeypatch, capsys
    ):
        """Every variant already in the corpus counts as a duplicate of
        a second ``popper fuzz``: the entries' ``meta.json`` files name
        them, with no ``corpus.jsonl`` beside them."""
        args = ["-C", str(repo.root), "fuzz", "--seed", "5", "-n", "4"]
        assert main([*args, "--no-minimize"]) in (0, 1)
        state = repo.vcs.meta / "fuzz"
        (state / "corpus.jsonl").unlink(missing_ok=True)
        known = {entry.variant for entry in Corpus(state / "corpus").entries()}
        assert known
        executed = []
        run = VariantRunner.run

        def recording_run(runner, scenario):
            executed.append(scenario.fingerprint())
            return run(runner, scenario)

        monkeypatch.setattr(VariantRunner, "run", recording_run)
        capsys.readouterr()
        assert main([*args, "--no-minimize"]) in (0, 1)
        assert "duplicates=0" not in capsys.readouterr().out
        assert known.isdisjoint(executed)

    def test_state_persists_under_pvcs_fuzz(self, repo):
        FuzzCampaign(repo, seed=5, iterations=2, do_minimize=False).run()
        state = repo.vcs.meta / "fuzz"
        assert (state / "coverage.jsonl").is_file()
        assert any((state / "corpus").iterdir())
        # The entry directories are the whole record: no index beside them.
        assert not (state / "corpus.jsonl").exists()
        # sandboxes are cleaned up after each variant
        work = state / "work"
        assert not work.is_dir() or not any(work.iterdir())


class TestOracleIntegration:
    def test_garbled_fault_spec_is_cleanly_rejected(self, repo):
        campaign = FuzzCampaign(repo, seed=1, iterations=1, do_minimize=False)
        scenario = Scenario.from_experiment(repo, "exp")
        bad = Scenario.from_json({**scenario.to_json(), "fault_spec": ":::"})
        result = campaign.runner.run(bad)
        assert result.outcome == "rejected"
        verdict = judge(result.observation)
        assert verdict.severity != SEVERITY_FAILURE

    def test_injected_crash_is_contained_and_repaired(self, repo):
        campaign = FuzzCampaign(repo, seed=1, iterations=1, do_minimize=False)
        scenario = Scenario.from_experiment(repo, "exp")
        crashing = Scenario.from_json(
            {**scenario.to_json(), "crash_spec": "at:journal.append.torn:1"}
        )
        result = campaign.runner.run(crashing)
        assert result.outcome == "crash"
        # the sandboxed doctor repaired the debris: not a finding
        assert judge(result.observation).severity != SEVERITY_FAILURE


def test_fuzz_smoke_passes(tmp_path):
    summary = fuzz_smoke(tmp_path)
    assert "known-bad caught" in summary
    assert "minimized" in summary

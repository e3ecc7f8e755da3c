"""The fuzzer's acceptance contract, end to end.

``popper fuzz --seed N --iterations K`` must be *fully deterministic*:
two campaigns from identical seeds produce the same corpus, the same
coverage map and byte-identical minimized reproducers.  Also covered:
the CLI verb itself, ``--seed`` unification across ``run``/``ci``/
``fuzz``, ``popper trace --fuzz``, and the default CI matrix carrying
the ``selftest`` job that runs the fuzz smoke.
"""

import filecmp
from pathlib import Path

from repro.ci.config import CIConfig
from repro.common import minyaml
from repro.core.cli import main
from repro.core.repo import DEFAULT_TRAVIS, PopperRepository
from repro.fuzz import FuzzCampaign
from repro.monitor.journal import load_journal

SEED = 99
ITERATIONS = 6


def make_repo(base: Path) -> PopperRepository:
    repo = PopperRepository.init(base)
    repo.add_experiment("torpor", "exp")
    vars_path = repo.experiment_dir("exp") / "vars.yml"
    doc = minyaml.load_file(vars_path)
    doc["runs"] = 2
    minyaml.dump_file(doc, vars_path)
    return repo


def fuzz_state_files(repo: PopperRepository) -> dict[str, Path]:
    """Deterministic artifacts under .pvcs/fuzz/ (relative -> absolute).

    ``work/`` (sandboxes), ``cache/`` (artifact store with mtimes) and
    ``journal.jsonl`` (wall-clock timestamps) are ephemeral by design
    and excluded from the byte-identity contract.
    """
    state = repo.vcs.meta / "fuzz"
    out: dict[str, Path] = {}
    for path in sorted(state.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(state)
        if rel.parts[0] in ("work", "cache") or rel.name == "journal.jsonl":
            continue
        out[str(rel)] = path
    return out


class TestByteDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        reports = []
        for side in ("a", "b"):
            repo = make_repo(tmp_path / side)
            reports.append(
                FuzzCampaign(repo, seed=SEED, iterations=ITERATIONS).run()
            )
        first, second = (
            fuzz_state_files(PopperRepository.open(tmp_path / side))
            for side in ("a", "b")
        )
        assert set(first) == set(second)
        assert len(first) > 0
        for rel in first:
            assert filecmp.cmp(first[rel], second[rel], shallow=False), (
                f"fuzz artifact differs across identical campaigns: {rel}"
            )
        assert reports[0].executed == reports[1].executed
        assert reports[0].outcomes == reports[1].outcomes
        assert reports[0].minimized == reports[1].minimized


class TestCLI:
    def test_fuzz_verb_and_trace(self, tmp_path, capsys):
        make_repo(tmp_path / "repo")
        rc = main(
            ["-C", str(tmp_path / "repo"), "fuzz", "--seed", "5", "-n", "3",
             "--no-minimize"]
        )
        out = capsys.readouterr().out
        assert rc in (0, 1)  # 1 = failures found, still a valid campaign
        assert "-- fuzz: seed=5" in out
        assert (tmp_path / "repo" / ".pvcs" / "fuzz" / "journal.jsonl").is_file()

        assert main(["-C", str(tmp_path / "repo"), "trace", "--fuzz"]) == 0
        trace = capsys.readouterr().out
        assert "fuzz campaign" in trace
        assert "seed: 5" in trace

    def test_run_seed_lands_in_journal_header(self, tmp_path):
        repo = make_repo(tmp_path / "repo")
        rc = main(["-C", str(tmp_path / "repo"), "run", "exp", "--seed", "123"])
        assert rc == 0
        events, _ = load_journal(
            repo.experiment_dir("exp") / "journal.jsonl"
        )
        run_start = next(e for e in events if e["event"] == "run_start")
        assert run_start["seed"] == 123

    def test_env_seed_is_fallback(self, tmp_path, monkeypatch, capsys):
        repo = make_repo(tmp_path / "repo")
        monkeypatch.setenv("POPPER_SEED", "321")
        rc = main(["-C", str(tmp_path / "repo"), "run", "exp", "--no-cache"])
        assert rc == 0
        events, _ = load_journal(
            repo.experiment_dir("exp") / "journal.jsonl"
        )
        run_start = next(e for e in events if e["event"] == "run_start")
        assert run_start["seed"] == 321

    def test_garbage_env_seed_rejected_cleanly(self, tmp_path, monkeypatch, capsys):
        make_repo(tmp_path / "repo")
        monkeypatch.setenv("POPPER_SEED", "not-a-number")
        rc = main(["-C", str(tmp_path / "repo"), "run", "exp"])
        assert rc == 2
        assert "POPPER_SEED" in capsys.readouterr().err


def test_default_matrix_includes_fuzz_smoke():
    config = CIConfig.from_yaml(DEFAULT_TRAVIS)
    jobs = [env.get("POPPER_JOB") for env in config.expand_matrix()]
    assert "selftest" in jobs
    assert len(jobs) == 6

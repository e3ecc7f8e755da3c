"""The CLI surface of the service layer: smoke job, daemon, trace."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.check.smoke
import repro.fuzz
import repro.store.smoke
from repro.core.cli import main
from repro.serve import QUEUE_DIR, JobQueue

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def repo_dir(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    assert main(["-C", str(repo), "init"]) == 0
    assert main(["-C", str(repo), "add", "torpor", "one"]) == 0
    return repo


class TestServeSmoke:
    def test_serve_smoke_cli(self, monkeypatch, capsys):
        # The other self-checks are stubbed so only the serve one runs.
        monkeypatch.setattr(repro.check.smoke, "perf_smoke", lambda: "perf stub")
        monkeypatch.setattr(repro.fuzz, "fuzz_smoke", lambda: "fuzz stub")
        monkeypatch.setattr(repro.store.smoke, "store_smoke", lambda: "store stub")
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "serve smoke ok" in out
        assert "kill -9 recovered" in out

    def test_default_ci_matrix_includes_the_serve_job(self):
        from repro.ci.config import CIConfig
        from repro.core.repo import DEFAULT_TRAVIS

        config = CIConfig.from_yaml(DEFAULT_TRAVIS)
        jobs = [env.get("POPPER_JOB") for env in config.expand_matrix()]
        assert "selftest" in jobs


class TestTraceServe:
    def test_summarizes_the_queue_journal(self, repo_dir, capsys):
        queue = JobQueue(repo_dir / ".pvcs" / QUEUE_DIR, durable=True)
        done = queue.submit("one", tenant="alice")
        queue.claim()
        queue.complete(done.id, meta={"rows": 3}, seconds=1.25)
        queue.submit("one", tenant="bob")
        queue.close()
        capsys.readouterr()

        assert main(["-C", str(repo_dir), "trace", "--serve"]) == 0
        out = capsys.readouterr().out
        assert "serve queue" in out
        assert "submitted: 2" in out
        assert "alice" in out and "bob" in out

    def test_requires_a_journal(self, repo_dir, capsys):
        assert main(["-C", str(repo_dir), "trace", "--serve"]) == 2
        err = capsys.readouterr().err
        assert "no serve queue journal" in err


class TestServeDaemonCli:
    def test_sigterm_drains_and_exits_143(self, repo_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.Popen(
            [
                sys.executable,
                "-u",
                "-m",
                "repro.core.cli",
                "-C",
                str(repo_dir),
                "serve",
                "--workers",
                "1",
                "--port",
                "0",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "popper serve on http://127.0.0.1:" in banner
            proc.stdout.readline()  # usage hint
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        assert proc.returncode == 143, out
        assert "draining" in out
        assert "left queued for the next daemon" in out

    def test_sigint_exits_130(self, repo_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.Popen(
            [
                sys.executable,
                "-u",
                "-m",
                "repro.core.cli",
                "-C",
                str(repo_dir),
                "serve",
                "--workers",
                "1",
                "--port",
                "0",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "popper serve" in banner
            time.sleep(0.2)  # let the pool finish spawning
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=60)
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        assert proc.returncode == 130, out

"""Every JSONL ledger follows one torn-tail rule.

A crash's fragment at the tail is skipped when the ledger is reopened,
the next append starts on a fresh line after it (the writer's seal), so
a second reopen still reads every complete record, and a bad line
anywhere else raises the owner's own error.
"""

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.check.profiles import Profile, ProfileHistory
from repro.common.errors import CheckError, FuzzError, MonitorError
from repro.common.groupcommit import read_jsonl
from repro.fuzz.coverage import CoverageMap
from repro.monitor.journal import RunJournal, load_journal
from repro.serve.queue import JobQueue


@dataclass(frozen=True)
class Owner:
    name: str
    path: Callable  # tmp -> the ledger file
    append: Callable  # (tmp, n) -> reopen the owner and append record n
    read: Callable  # tmp -> reopen the owner and list its records' n
    error: type


def run_journal_append(tmp, n):
    with RunJournal(tmp / "journal.jsonl", fresh=False) as journal:
        journal.event("metric", n=n)


def queue_append(tmp, n):
    with JobQueue(tmp / "queue", durable=False) as queue:
        queue.submit(f"exp-{n}")


def queue_read(tmp):
    with JobQueue(tmp / "queue", durable=False) as queue:
        return [int(job.experiment.split("-")[1]) for job in queue.jobs.values()]


def coverage_append(tmp, n):
    coverage = CoverageMap(tmp / "coverage.jsonl")
    coverage.observe(f"variant-{n}", {f"key:{n}"})
    coverage.close()


def coverage_read(tmp):
    keys = CoverageMap(tmp / "coverage.jsonl").keys()
    return sorted(int(key.split(":")[1]) for key in keys)


def profile_append(tmp, n):
    ProfileHistory(tmp).attach(Profile("c1", series={"x": [float(n)]}))


OWNERS = [
    Owner(
        "run-journal",
        lambda tmp: tmp / "journal.jsonl",
        run_journal_append,
        lambda tmp: [e["n"] for e in load_journal(tmp / "journal.jsonl")[0]],
        MonitorError,
    ),
    Owner(
        "queue-journal",
        lambda tmp: tmp / "queue" / "journal.jsonl",
        queue_append,
        queue_read,
        MonitorError,
    ),
    Owner(
        "fuzz-coverage",
        lambda tmp: tmp / "coverage.jsonl",
        coverage_append,
        coverage_read,
        FuzzError,
    ),
    Owner(
        "profile-ledger",
        lambda tmp: tmp / "profiles" / "c1.jsonl",
        profile_append,
        lambda tmp: [int(x) for x in ProfileHistory(tmp).require("c1").series["x"]],
        CheckError,
    ),
]


@pytest.mark.parametrize("owner", OWNERS, ids=lambda owner: owner.name)
class TestLedgerOwners:
    def test_torn_tail_reopen_append_reopen(self, owner, tmp_path):
        owner.append(tmp_path, 1)
        owner.append(tmp_path, 2)
        path = owner.path(tmp_path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "n": 3, "torn')  # crashed append
        with pytest.warns(UserWarning, match="torn trailing"):
            owner.append(tmp_path, 3)
            assert owner.read(tmp_path) == [1, 2, 3]
            records, torn = read_jsonl(path)
        assert len(records) == 3
        assert torn == 1

    def test_bad_interior_line_raises_the_owners_error(self, owner, tmp_path):
        owner.append(tmp_path, 1)
        path = owner.path(tmp_path)
        path.write_text("not json\n" + path.read_text(encoding="utf-8"))
        with pytest.raises(owner.error):
            owner.read(tmp_path)

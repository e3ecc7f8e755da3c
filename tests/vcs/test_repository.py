"""Tests for repository porcelain: add/commit/branch/checkout/log/status."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import VcsError
from repro.vcs.repository import Repository


@pytest.fixture
def repo(tmp_path):
    return Repository.init(tmp_path / "work")


def write(repo, rel, text):
    path = repo.root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return rel


class TestInitOpen:
    def test_init_creates_meta(self, tmp_path):
        repo = Repository.init(tmp_path / "r")
        assert (repo.root / ".pvcs").is_dir()

    def test_double_init_rejected(self, tmp_path):
        Repository.init(tmp_path / "r")
        with pytest.raises(VcsError):
            Repository.init(tmp_path / "r")

    def test_open_from_subdirectory(self, repo):
        sub = repo.root / "a" / "b"
        sub.mkdir(parents=True)
        again = Repository.open(sub)
        assert again.root == repo.root

    def test_open_missing(self, tmp_path):
        with pytest.raises(VcsError):
            Repository.open(tmp_path)

    def test_is_repository(self, repo, tmp_path):
        assert Repository.is_repository(repo.root)
        assert not Repository.is_repository(tmp_path)


class TestCommitFlow:
    def test_add_commit_log(self, repo):
        write(repo, "file.txt", "v1")
        repo.add("file.txt")
        oid = repo.commit("first")
        history = repo.log()
        assert [e.oid for e in history] == [oid]
        assert history[0].subject == "first"

    def test_commit_empty_message_rejected(self, repo):
        write(repo, "f", "x")
        repo.add("f")
        with pytest.raises(VcsError):
            repo.commit("   ")

    def test_commit_unchanged_tree_rejected(self, repo):
        write(repo, "f", "x")
        repo.add("f")
        repo.commit("one")
        with pytest.raises(VcsError, match="nothing to commit"):
            repo.commit("two")

    def test_history_chain(self, repo):
        write(repo, "f", "1")
        repo.add("f")
        first = repo.commit("c1")
        write(repo, "f", "2")
        repo.add("f")
        second = repo.commit("c2")
        history = repo.log()
        assert [e.oid for e in history] == [second, first]
        assert history[0].timestamp > history[1].timestamp

    def test_log_limit(self, repo):
        for i in range(5):
            write(repo, "f", str(i))
            repo.add("f")
            repo.commit(f"c{i}")
        assert len(repo.log(limit=2)) == 2

    def test_log_on_unborn_head(self, repo):
        assert repo.log() == []

    def test_cat_and_ls(self, repo):
        write(repo, "dir/inner.txt", "inner")
        write(repo, "top.txt", "top")
        repo.add_all()
        repo.commit("snapshot")
        assert repo.cat("HEAD", "dir/inner.txt") == b"inner"
        assert repo.ls() == ["dir/inner.txt", "top.txt"]

    def test_add_directory_recurses(self, repo):
        write(repo, "exp/a.txt", "a")
        write(repo, "exp/sub/b.txt", "b")
        staged = repo.add("exp")
        assert sorted(staged) == ["exp/a.txt", "exp/sub/b.txt"]

    def test_add_missing_path(self, repo):
        with pytest.raises(VcsError):
            repo.add("ghost.txt")

    def test_metadata_never_tracked(self, repo):
        write(repo, "f", "x")
        repo.add_all()
        assert all(not p.startswith(".pvcs") for p in repo.index.entries)

    def test_resolve_prefix(self, repo):
        write(repo, "f", "x")
        repo.add("f")
        oid = repo.commit("c")
        assert repo.resolve(oid[:12]) == oid

    def test_commits_between_walks_first_parent_oldest_first(self, repo):
        oids = []
        for i in range(4):
            write(repo, "f", str(i))
            repo.add("f")
            oids.append(repo.commit(f"c{i}"))
        assert repo.commits_between(oids[0]) == oids[1:]
        assert repo.commits_between(oids[1], oids[2]) == [oids[2]]
        assert repo.commits_between(oids[3], oids[3]) == []

    def test_commits_between_rejects_non_ancestor(self, repo):
        write(repo, "f", "x")
        repo.add("f")
        first = repo.commit("c1")
        write(repo, "f", "y")
        repo.add("f")
        second = repo.commit("c2")
        with pytest.raises(VcsError):
            repo.commits_between(second, first)


class TestBranchesAndTags:
    def test_branch_and_checkout(self, repo):
        write(repo, "f", "main1")
        repo.add("f")
        repo.commit("on main")
        repo.branch("feature")
        repo.checkout("feature")
        write(repo, "f", "feature change")
        repo.add("f")
        feature_oid = repo.commit("on feature")
        repo.checkout("main")
        assert (repo.root / "f").read_text() == "main1"
        repo.checkout("feature")
        assert (repo.root / "f").read_text() == "feature change"
        assert repo.head_commit() == feature_oid

    def test_duplicate_branch_rejected(self, repo):
        write(repo, "f", "x")
        repo.add("f")
        repo.commit("c")
        repo.branch("b")
        with pytest.raises(VcsError):
            repo.branch("b")

    def test_tag_resolves_to_commit(self, repo):
        write(repo, "f", "x")
        repo.add("f")
        oid = repo.commit("c")
        repo.tag("v1.0", message="release")
        assert repo.resolve("v1.0") == oid

    def test_duplicate_tag_rejected(self, repo):
        write(repo, "f", "x")
        repo.add("f")
        repo.commit("c")
        repo.tag("v1")
        with pytest.raises(VcsError):
            repo.tag("v1")

    def test_detached_checkout(self, repo):
        write(repo, "f", "1")
        repo.add("f")
        first = repo.commit("c1")
        write(repo, "f", "2")
        repo.add("f")
        repo.commit("c2")
        repo.checkout(first)
        branch, oid = repo.refs.head()
        assert branch is None and oid == first
        assert (repo.root / "f").read_text() == "1"

    def test_checkout_refuses_dirty_tree(self, repo):
        write(repo, "f", "1")
        repo.add("f")
        repo.commit("c1")
        repo.branch("other")
        write(repo, "f", "dirty")
        with pytest.raises(VcsError, match="uncommitted"):
            repo.checkout("other")

    def test_checkout_removes_vanished_files(self, repo):
        write(repo, "keep.txt", "k")
        write(repo, "old.txt", "o")
        repo.add_all()
        first = repo.commit("both")
        repo.rm("old.txt")
        repo.commit("drop old")
        repo.checkout(first)
        assert (repo.root / "old.txt").exists()
        repo.checkout("main")
        assert not (repo.root / "old.txt").exists()


class TestStatusAndDiff:
    def test_clean_after_commit(self, repo):
        write(repo, "f", "x")
        repo.add("f")
        repo.commit("c")
        assert repo.status().clean

    def test_untracked(self, repo):
        write(repo, "new.txt", "x")
        assert repo.status().untracked == ["new.txt"]

    def test_modified(self, repo):
        write(repo, "f", "1")
        repo.add("f")
        repo.commit("c")
        write(repo, "f", "2")
        assert repo.status().modified == ["f"]

    def test_deleted(self, repo):
        write(repo, "f", "1")
        repo.add("f")
        repo.commit("c")
        (repo.root / "f").unlink()
        assert repo.status().deleted == ["f"]

    def test_staged_changes_listed(self, repo):
        write(repo, "f", "1")
        repo.add("f")
        status = repo.status()
        assert [str(c) for c in status.staged] == ["A f"]

    def test_diff_between_commits(self, repo):
        write(repo, "f", "old line\n")
        repo.add("f")
        first = repo.commit("c1")
        write(repo, "f", "new line\n")
        repo.add("f")
        repo.commit("c2")
        text = repo.diff(first)
        assert "-old line" in text and "+new line" in text

    def test_diff_from_root(self, repo):
        write(repo, "f", "content\n")
        repo.add("f")
        repo.commit("c")
        assert "+content" in repo.diff(None)


class TestCloneAndFsck:
    def test_clone_preserves_history_and_tree(self, repo, tmp_path):
        write(repo, "a.txt", "alpha")
        repo.add_all()
        repo.commit("c1")
        write(repo, "b.txt", "beta")
        repo.add_all()
        repo.commit("c2")
        repo.tag("v1")
        other = repo.clone(tmp_path / "clone")
        assert [e.subject for e in other.log()] == ["c2", "c1"]
        assert (other.root / "a.txt").read_text() == "alpha"
        assert other.resolve("v1") == repo.resolve("v1")

    def test_every_checkout_keeps_the_exec_bit(self, repo, tmp_path):
        """A clone and a workspace checkout write through one writer,
        so a file committed executable comes out executable from both."""
        (repo.root / "run.sh").write_text("#!/bin/sh\n")
        (repo.root / "run.sh").chmod(0o755)
        write(repo, "vars.yml", "runs: 2\n")
        repo.add_all()
        commit = repo.store.get_commit(repo.commit("c1"))
        workspace = tmp_path / "workspace"
        repo.store.checkout_tree(commit.tree, workspace)
        clone = repo.clone(tmp_path / "clone")
        for root in (workspace, clone.root):
            assert (root / "run.sh").stat().st_mode & 0o111, root
            assert not (root / "vars.yml").stat().st_mode & 0o111, root

    def test_clone_into_nonempty_rejected(self, repo, tmp_path):
        target = tmp_path / "dst"
        target.mkdir()
        (target / "junk").write_text("x")
        with pytest.raises(VcsError):
            repo.clone(target)

    def test_fsck_healthy(self, repo):
        write(repo, "f", "x")
        repo.add("f")
        repo.commit("c")
        assert repo.fsck() == []

    def test_fsck_detects_corruption(self, repo):
        write(repo, "f", "x")
        repo.add("f")
        oid = repo.commit("c")
        path = repo.store._path(oid)
        path.write_bytes(b"garbage")
        assert oid in repo.fsck()


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None, max_examples=20)
@given(
    contents=st.lists(
        st.text(alphabet="abc\n", min_size=0, max_size=20), min_size=1, max_size=6
    )
)
def test_history_round_trips_every_version(tmp_path_factory, contents):
    """Property: after N commits of a file, checking out commit i restores
    exactly the i-th content."""
    root = tmp_path_factory.mktemp("prop")
    repo = Repository.init(root)
    oids = []
    previous = None
    for i, text in enumerate(contents):
        (repo.root / "data.txt").write_text(text, encoding="utf-8")
        repo.add("data.txt")
        try:
            oids.append((repo.commit(f"v{i}"), text))
            previous = text
        except VcsError:
            # identical consecutive contents produce "nothing to commit"
            assert text == previous
    for oid, text in oids:
        repo.checkout(oid)
        assert (repo.root / "data.txt").read_text(encoding="utf-8") == text

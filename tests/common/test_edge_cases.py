"""Edge-case coverage across the common and substrate layers."""

import os
import stat

import pytest

from repro.common import minyaml
from repro.common.crash import CrashPlan, SimulatedCrash, install_crash_plan
from repro.common.errors import VcsError, YamlError
from repro.common.fsutil import atomic_write, walk_files
from repro.common.units import format_size


class TestMinyamlEdges:
    def test_explicit_end_of_document(self):
        docs = minyaml.load_all("a: 1\n...\nb: 2\n")
        assert docs == [{"a": 1}, {"b": 2}]

    def test_literal_block_inside_nested_mapping(self):
        doc = minyaml.loads(
            "outer:\n  script: |\n    line1\n    line2\n  after: ok\n"
        )
        assert doc == {"outer": {"script": "line1\nline2\n", "after": "ok"}}

    def test_hex_integers(self):
        assert minyaml.loads("x: 0x10") == {"x": 16}

    def test_colon_without_space_is_plain_scalar(self):
        assert minyaml.loads("url: http://host:8080/path") == {
            "url": "http://host:8080/path"
        }

    def test_comment_hash_inside_plain_scalar(self):
        # '#' only starts a comment after whitespace
        assert minyaml.loads("tag: a#b") == {"tag": "a#b"}

    def test_deeply_nested_sequences(self):
        doc = minyaml.loads("- - - 1\n- 2\n")
        assert doc == [[[1]], 2]

    def test_dump_special_strings_quoted(self):
        for value in ("true", "123", "- dash", "a: b", ""):
            assert minyaml.loads(minyaml.dumps({"k": value})) == {"k": value}

    def test_error_offset_information(self):
        try:
            minyaml.loads("x: [1,")
        except YamlError as exc:
            assert "flow" in str(exc)
        else:  # pragma: no cover
            pytest.fail("expected YamlError")


class TestFsUtil:
    def test_atomic_write_replaces(self, tmp_path):
        target = tmp_path / "deep" / "file.bin"
        atomic_write(target, b"one", crash_label="test.file")
        atomic_write(target, b"two", crash_label="test.file")
        assert target.read_bytes() == b"two"
        assert [p.name for p in target.parent.iterdir()] == ["file.bin"]

    def test_atomic_write_skips_identical_bytes_unless_durable(self, tmp_path):
        target = tmp_path / "results.csv"
        atomic_write(target, b"a,b\n1,2\n", durable=False, crash_label="test.file")
        inode = target.stat().st_ino
        install_crash_plan(CrashPlan.parse("rate:*:1"))
        try:
            # The same bytes, not durable: no temp, no rename, no point.
            atomic_write(
                target, b"a,b\n1,2\n", durable=False, crash_label="test.file"
            )
            assert target.stat().st_ino == inode
            # A durable write of the same bytes still writes.
            with pytest.raises(SimulatedCrash, match="test.file.tmp"):
                atomic_write(target, b"a,b\n1,2\n", crash_label="test.file")
        finally:
            install_crash_plan(None)
        assert target.stat().st_ino == inode
        # Other bytes replace the file.
        atomic_write(target, b"a,b\n1,3\n", durable=False, crash_label="test.file")
        assert target.read_bytes() == b"a,b\n1,3\n"
        assert target.stat().st_ino != inode

    def test_atomic_write_gives_a_new_file_the_umask_mode(self, tmp_path):
        """The mode ``open(path, "w")`` gives, not ``mkstemp``'s 0600."""
        previous = os.umask(0o022)
        try:
            atomic_write(tmp_path / "README.md", b"x", crash_label="test.file")
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "README.md").stat().st_mode) == 0o644

    def test_walk_files_sorted(self, tmp_path):
        for name in ("b/z.txt", "b/a.txt", "a.txt"):
            path = tmp_path / name
            path.parent.mkdir(exist_ok=True)
            path.write_text("x")
        rels = [p.relative_to(tmp_path).as_posix() for p in walk_files(tmp_path)]
        assert rels == ["a.txt", "b/a.txt", "b/z.txt"]


class TestUnitsEdges:
    def test_format_size_boundaries(self):
        assert format_size(1023) == "1023B"
        assert format_size(1024) == "1.0KiB"
        assert format_size(1024**4) == "1.0TiB"


class TestIndexConflicts:
    def test_file_directory_conflict_detected(self, tmp_path):
        from repro.vcs.index import Index
        from repro.vcs.objects import Blob
        from repro.vcs.store import ObjectStore

        store = ObjectStore(tmp_path / "objects")
        oid = store.put(Blob(b"x"))
        index = Index(tmp_path / "index")
        index.stage("a", oid)
        index.stage("a/b", oid)
        with pytest.raises(VcsError, match="conflict"):
            index.build_tree(store)

    def test_illegal_paths_rejected(self, tmp_path):
        from repro.vcs.index import Index

        index = Index(tmp_path / "index")
        for bad in ("", "/abs", "a/../b", "a//b", "."):
            with pytest.raises(VcsError):
                index.stage(bad, "0" * 64)


class TestRefEdges:
    def test_branch_name_validation(self, tmp_path):
        from repro.vcs.refs import RefStore

        refs = RefStore(tmp_path)
        for bad in ("", "-lead", "a..b", "name/", "sp ace", "a/.hidden"):
            with pytest.raises(VcsError):
                refs.write_branch(bad, "0" * 64)

    def test_delete_checked_out_branch_refused(self, tmp_path):
        from repro.vcs.repository import Repository

        repo = Repository.init(tmp_path / "r")
        (repo.root / "f").write_text("x")
        repo.add("f")
        repo.commit("c")
        with pytest.raises(VcsError, match="checked-out"):
            repo.refs.delete_branch("main")

    def test_delete_other_branch(self, tmp_path):
        from repro.vcs.repository import Repository

        repo = Repository.init(tmp_path / "r")
        (repo.root / "f").write_text("x")
        repo.add("f")
        repo.commit("c")
        repo.branch("dev")
        repo.refs.delete_branch("dev")
        assert repo.refs.branches() == ["main"]


class TestCIConfigEdges:
    def test_matrix_include_dict_form(self):
        from repro.ci.config import CIConfig

        config = CIConfig.from_yaml(
            "env: [A=1]\n"
            "matrix:\n"
            "  include:\n"
            "    - env: B=2\n"
            "script: [t]\n"
        )
        jobs = config.expand_matrix()
        assert {"B": "2"} in jobs

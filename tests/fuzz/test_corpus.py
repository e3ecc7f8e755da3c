"""Corpus storage: runnable variant directories, each complete with its meta.json."""

import pytest

from repro.common.errors import FuzzError
from repro.fuzz.corpus import Corpus, CorpusEntry
from repro.fuzz.mutators import Mutation
from repro.fuzz.oracle import OracleVerdict
from repro.fuzz.scenario import Scenario


def make_entry(tag="a"):
    scenario = Scenario(
        name="exp",
        files={"vars.yml": f"runner: torpor\ntag: {tag}\n"},
    )
    return CorpusEntry(
        variant=scenario.fingerprint(),
        scenario=scenario,
        chain=(Mutation("vars-widen", {"key": "runs", "factor": 2}),),
        verdict=OracleVerdict(kinds=("aver-fail",), severity="failure"),
        outcome="validation-failed",
        detail="expect speedup > 1000 failed",
        novel=("aver:fail",),
    )


@pytest.fixture
def corpus(tmp_path):
    return Corpus(tmp_path / "fuzz" / "corpus")


class TestRoundTrip:
    def test_add_then_load(self, corpus):
        entry = make_entry()
        corpus.add(entry)
        back = corpus.load(entry.variant)
        assert back.scenario.fingerprint() == entry.scenario.fingerprint()
        assert back.chain == entry.chain
        assert back.verdict == entry.verdict
        assert back.outcome == entry.outcome

    def test_stored_variant_is_runnable_experiment_dir(self, corpus):
        entry = make_entry()
        target = corpus.add(entry)
        assert (target / "experiment" / "vars.yml").is_file()

    def test_add_is_idempotent(self, corpus):
        entry = make_entry()
        corpus.add(entry)
        corpus.add(entry)
        assert len(corpus) == 1

    def test_entries_lists_all(self, corpus):
        corpus.add(make_entry("a"))
        corpus.add(make_entry("b"))
        assert len(corpus.entries()) == 2

    def test_entries_carry_full_variant_ids(self, corpus):
        # Directories take a 16-character prefix; the known variants a
        # campaign compares fingerprints with come from meta.json.
        entry = make_entry()
        corpus.add(entry)
        assert len(entry.variant) > 16
        assert corpus.variants() == [entry.variant[:16]]
        assert [e.variant for e in corpus.entries()] == [entry.variant]

    def test_missing_variant_raises_cleanly(self, corpus):
        with pytest.raises(FuzzError):
            corpus.load("0" * 64)


class TestDurability:
    def test_partial_entry_without_meta_is_invisible(self, corpus):
        entry = make_entry()
        target = corpus.add(entry)
        # Simulate a crash between the files and the meta publish.
        (target / "meta.json").unlink()
        assert corpus.variants() == []
        assert len(corpus) == 0

    def test_no_timestamps_in_stored_state(self, corpus):
        # Byte-determinism across campaigns forbids wall-clock leakage.
        entry = make_entry()
        target = corpus.add(entry)
        meta = (target / "meta.json").read_text(encoding="utf-8")
        assert '"ts"' not in meta
        assert "time" not in meta

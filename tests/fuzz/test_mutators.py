"""The mutation engine: seeded, pure, total, and JSON round-trippable."""

import pytest

from repro.common.errors import FuzzError
from repro.common.rng import derive_rng
from repro.fuzz.mutators import (
    MUTATION_RULES,
    Mutation,
    apply_chain,
    apply_mutation,
    generate_mutation,
    generate_serve_payload,
)
from repro.fuzz.scenario import Scenario

VARS = "runner: torpor\nruns: 3\nlimits:\n  - 1\n  - 2\n"
AVER = "expect speedup > 1\n"
TRAVIS = "language: generic\nenv:\n  - A=1\nscript:\n  - popper check\n"


@pytest.fixture
def scenario():
    return Scenario(
        name="exp",
        files={
            "vars.yml": VARS,
            "validations.aver": AVER,
            "setup.yml": "- hosts: all\n  tasks: []\n",
        },
        travis=TRAVIS,
    )


class TestMutationRecord:
    def test_json_round_trip(self):
        m = Mutation("vars-widen", {"key": "runs", "factor": 10})
        assert Mutation.from_json(m.to_json()) == m

    def test_describe_names_rule_and_args(self):
        m = Mutation("hosts-set", {"count": 5})
        assert "hosts-set" in m.describe()
        assert "5" in m.describe()

    def test_unknown_rule_raises_cleanly(self, scenario):
        with pytest.raises(FuzzError):
            apply_mutation(scenario, Mutation("no-such-rule", {}))


class TestGeneration:
    def test_same_rng_same_mutation(self, scenario):
        a = generate_mutation(scenario, derive_rng(7, "m", 0))
        b = generate_mutation(scenario, derive_rng(7, "m", 0))
        assert a == b

    def test_generated_mutations_are_known_rules(self, scenario):
        for i in range(40):
            m = generate_mutation(scenario, derive_rng(3, "gen", i))
            assert m.rule in MUTATION_RULES

    def test_generation_covers_many_rules(self, scenario):
        rules = {
            generate_mutation(scenario, derive_rng(11, "cov", i)).rule
            for i in range(300)
        }
        # Not every rule applies to every scenario, but the generator
        # must explore well beyond a couple of favourites.
        assert len(rules) >= 8


class TestApplication:
    def test_apply_is_pure(self, scenario):
        m = generate_mutation(scenario, derive_rng(1, "p"))
        first = apply_mutation(scenario, m)
        second = apply_mutation(scenario, m)
        assert first.fingerprint() == second.fingerprint()
        assert scenario.files["vars.yml"] == VARS  # input untouched

    def test_apply_is_total_over_generated_chains(self, scenario):
        # Stacked mutations may invalidate each other's preconditions
        # (e.g. a dropped var then widened): apply must never raise.
        current = scenario
        for i in range(60):
            m = generate_mutation(current, derive_rng(5, "total", i))
            current = apply_mutation(current, m)
        assert isinstance(current, Scenario)

    def test_chain_application_matches_stepwise(self, scenario):
        chain = [
            generate_mutation(scenario, derive_rng(9, "c", i))
            for i in range(4)
        ]
        stepwise = scenario
        for m in chain:
            stepwise = apply_mutation(stepwise, m)
        assert apply_chain(scenario, chain).fingerprint() == (
            stepwise.fingerprint()
        )

    def test_runner_key_never_dropped(self, scenario):
        for i in range(200):
            m = generate_mutation(scenario, derive_rng(13, "drop", i))
            if m.rule == "vars-drop":
                assert m.args["key"] != "runner"

    def test_aver_rewrite_tightens_threshold(self, scenario):
        m = Mutation("aver-rewrite", {"find": "> 1", "replace": "> 1000"})
        out = apply_mutation(scenario, m)
        assert "> 1000" in out.files["validations.aver"]


class TestScenario:
    def test_fingerprint_is_content_addressed(self, scenario):
        same = Scenario(
            name="exp", files=dict(scenario.files), travis=TRAVIS
        )
        assert same.fingerprint() == scenario.fingerprint()
        changed = scenario.with_file("vars.yml", VARS + "extra: 1\n")
        assert changed.fingerprint() != scenario.fingerprint()

    def test_json_round_trip(self, scenario):
        back = Scenario.from_json(scenario.to_json())
        assert back.fingerprint() == scenario.fingerprint()

    def test_bad_record_raises_cleanly(self):
        with pytest.raises(FuzzError):
            Scenario.from_json({"nonsense": True})


class TestServePayloadGrammar:
    def test_deterministic_for_one_seed(self):
        first = [
            generate_serve_payload(derive_rng(9, "serve")) for _ in range(1)
        ]
        for _ in range(3):
            again = generate_serve_payload(derive_rng(9, "serve"))
            assert again == first[0]

    def test_streams_differ_across_seeds(self):
        a = [generate_serve_payload(derive_rng(1, "serve")) for _ in range(8)]
        b = [generate_serve_payload(derive_rng(2, "serve")) for _ in range(8)]
        assert a != b

    def test_total_and_byte_typed(self):
        rng = derive_rng(5, "serve")
        payloads = [generate_serve_payload(rng) for _ in range(200)]
        assert all(isinstance(p, bytes) for p in payloads)
        # The grammar mixes shapes: some payloads must not even decode,
        # and the oversized shape must trip the 64 KiB admission bound.
        from repro.serve import MAX_BODY_BYTES

        def decodes(p):
            try:
                p.decode("utf-8")
                return True
            except UnicodeDecodeError:
                return False

        assert any(not decodes(p) for p in payloads)
        assert any(len(p) > MAX_BODY_BYTES for p in payloads)
        assert any(len(p) <= MAX_BODY_BYTES for p in payloads)

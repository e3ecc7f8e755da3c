"""Rule-based scenario mutation (the Perun-style generation half).

Mutations are split in two so the delta-debugging minimizer can replay
arbitrary subsets of a variant's history:

* :func:`generate_mutation` consumes randomness (a seeded numpy
  ``Generator``) and produces a :class:`Mutation` — a rule name plus a
  JSON-serializable argument mapping.
* :func:`apply_mutation` is a *pure* function from (scenario, mutation)
  to a new scenario.  No randomness, no clock: replaying the same chain
  over the same seed scenario always yields byte-identical content.

A mutation whose precondition no longer holds (its key was dropped by an
earlier chain member, say) applies as a no-op rather than erroring —
ddmin subsets stay well-formed without special-casing.

The rule inventory covers every input surface ISSUE 8 names: ``vars.yml``
parameter spaces (numeric widening, boundary values, type flips, dropped
keys, list reshaping), pipeline stage lists (``optional_stages``),
``.travis.yml`` env matrices, playbook inventories / host counts, and the
FaultPlan / CrashPlan injection grammars — including deliberately garbled
specs that probe the parsers' clean-``ReproError`` contract.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from repro.common import minyaml
from repro.common.crash import RUN_CRASH_POINTS
from repro.common.errors import FuzzError, YamlError
from repro.fuzz.scenario import Scenario

__all__ = [
    "Mutation",
    "MUTATION_RULES",
    "apply_mutation",
    "apply_chain",
    "generate_mutation",
    "generate_serve_payload",
]


@dataclass(frozen=True)
class Mutation:
    """One named, replayable rewrite of a scenario."""

    rule: str
    args: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"rule": self.rule, "args": dict(self.args)}

    @classmethod
    def from_json(cls, payload: dict) -> "Mutation":
        try:
            return cls(rule=str(payload["rule"]), args=dict(payload["args"]))
        except (KeyError, TypeError) as exc:
            raise FuzzError(f"bad mutation record: {exc}") from exc

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.args.items()))
        return f"{self.rule}({inner})"


# ---------------------------------------------------------------------------
# Value pools (all deterministic constants — the rng only *selects*)
# ---------------------------------------------------------------------------

_WIDEN_FACTORS = (0, -1, 2, 10, 100)
_BOUNDARY_VALUES = (0, -1, 1, 2**31 - 1, 10**9, 0.0, -0.5, 1e-9)
_TYPE_FLIPS = ("string", "list", "null", "bool")
_LIST_OPS = ("empty", "dup", "widen", "negate")

#: Pipeline stages that may legally be marked optional (``run`` may not).
_OPTIONAL_STAGE_POOL = (
    ["visualize"],
    ["postprocess", "visualize"],
    ["baseline"],
    ["baseline", "visualize"],
    ["does-not-exist"],
    [],
)

#: Task-id globs for fault specs: pipeline stage ids plus wildcards.
_FAULT_TARGETS = ("run", "setup", "baseline", "postprocess", "visualize",
                  "validate", "exp-*", "*")
_FAULT_CLAUSES = (
    "flaky:{t}:1", "flaky:{t}:2", "fail:{t}", "delay:{t}:0", "rate:{t}:0.5",
    "rate:{t}:1", "rate:{t}:0",
)

#: The crash points one variant's pipeline run consults (the run crash
#: points of the crash -> doctor -> re-run matrix) plus globs over them.
_CRASH_TARGETS = (
    *RUN_CRASH_POINTS,
    "cas.*", "profiles.*", "*.torn", "*.window", "index.*", "*",
)
_CRASH_CLAUSES = ("at:{t}:1", "at:{t}:2", "at:{t}:3", "rate:{t}:0.5",
                  "rate:{t}:1")

#: Garbled injection specs: must be *rejected cleanly*, never traceback.
_GARBLED_SPECS = (
    "", ",,,", "at::1", "at:x:", "rate:x:2", "rate:x:-1", "bogus:x:1",
    "at:x:nan", "at:x:inf", "at:x:0", "at:x:1.5", "flaky:run:nan",
    "fail:run:1", "delay:run:-1", "rate:run:inf", ":::", "at",
)

#: Travis env lines: well-formed ones, quoted values included, and
#: deliberately odd ones (an empty value, no ``=``, an unbalanced quote).
_TRAVIS_ENV_LINES = (
    "POPPER_JOB=selftest",
    'POPPER_JOB="run --all --retries 3 --inject-faults flaky:run:2"',
    'POPPER_JOB="run --all --cache-check"', "POPPER_JOB=",
    'EXTRA=1 POPPER_JOB="run --all --retries 3 --inject-faults flaky:run:2"',
    "NOVALUE", 'POPPER_JOB="run --all',
)

_HOST_COUNTS = (0, 1, 2, 3, 5, 8)


# ---------------------------------------------------------------------------
# Application (pure)
# ---------------------------------------------------------------------------

def _parse_or_none(text: str):
    try:
        return minyaml.loads(text)
    except YamlError:
        return None


def _mutate_vars(scenario: Scenario, mutation: Mutation) -> Scenario:
    doc = _parse_or_none(scenario.files.get("vars.yml", ""))
    if not isinstance(doc, dict):
        return scenario
    variables = dict(doc)
    rule, args = mutation.rule, mutation.args
    key = args.get("key")
    if rule == "vars-widen":
        value = variables.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return scenario
        widened = value * args["factor"]
        variables[key] = int(widened) if isinstance(value, int) else widened
    elif rule == "vars-boundary":
        if key not in variables:
            return scenario
        variables[key] = args["value"]
    elif rule == "vars-type-flip":
        if key not in variables:
            return scenario
        value, kind = variables[key], args["kind"]
        if kind == "string":
            variables[key] = f"not-a-number-{value}"
        elif kind == "list":
            variables[key] = [value, value]
        elif kind == "null":
            variables[key] = None
        elif kind == "bool":
            variables[key] = True
    elif rule == "vars-drop":
        if key not in variables or key == "runner":
            return scenario
        del variables[key]
    elif rule == "vars-list":
        value = variables.get(key)
        if not isinstance(value, list):
            return scenario
        op = args["op"]
        if op == "empty":
            variables[key] = []
        elif op == "dup":
            variables[key] = value + value
        elif op == "widen":
            variables[key] = [
                v * 10 if isinstance(v, (int, float)) and not isinstance(v, bool)
                else v
                for v in value
            ]
        elif op == "negate":
            variables[key] = [
                -v if isinstance(v, (int, float)) and not isinstance(v, bool)
                else v
                for v in value
            ]
    elif rule == "stages-optional":
        variables["optional_stages"] = list(args["stages"])
    elif rule == "seed-set":
        variables["seed"] = args["value"]
    else:  # pragma: no cover - guarded by the dispatch table
        raise FuzzError(f"unknown vars mutation {rule!r}")
    return scenario.with_vars(variables)


def _mutate_travis(scenario: Scenario, mutation: Mutation) -> Scenario:
    rule, args = mutation.rule, mutation.args
    if rule == "travis-garble":
        # Deliberately invalid CI input; the static probe must reject it
        # with a clean CIError/YamlError, never a traceback.
        return replace(scenario, travis=args["text"])
    doc = _parse_or_none(scenario.travis or "")
    if not isinstance(doc, dict):
        return scenario
    doc = dict(doc)
    env = list(doc.get("env") or [])
    if rule == "travis-env-add":
        env.append(args["line"])
    elif rule == "travis-env-drop":
        if not env:
            return scenario
        env.pop(int(args["index"]) % len(env))
    else:  # pragma: no cover - guarded by the dispatch table
        raise FuzzError(f"unknown travis mutation {rule!r}")
    doc["env"] = env
    return replace(scenario, travis=minyaml.dumps(doc))


def _mutate_scalar_field(scenario: Scenario, mutation: Mutation) -> Scenario:
    rule, args = mutation.rule, mutation.args
    if rule == "hosts-set":
        return replace(scenario, host_count=int(args["count"]))
    if rule == "fault-spec":
        return replace(scenario, fault_spec=args["spec"])
    if rule == "crash-spec":
        return replace(scenario, crash_spec=args["spec"])
    raise FuzzError(f"unknown scalar mutation {rule!r}")  # pragma: no cover


def _mutate_aver(scenario: Scenario, mutation: Mutation) -> Scenario:
    source = scenario.files.get("validations.aver")
    if source is None:
        return scenario
    find, replacement = mutation.args["find"], mutation.args["replace"]
    if find not in source:
        return scenario
    return scenario.with_file(
        "validations.aver", source.replace(find, replacement, 1)
    )


#: rule name -> (applier, generator); the single source of truth.
MUTATION_RULES: dict = {}


def apply_mutation(scenario: Scenario, mutation: Mutation) -> Scenario:
    """Apply one mutation; pure and total (bad preconditions no-op)."""
    try:
        applier = MUTATION_RULES[mutation.rule][0]
    except KeyError:
        raise FuzzError(f"unknown mutation rule {mutation.rule!r}") from None
    return applier(scenario, mutation)


def apply_chain(scenario: Scenario, chain: list[Mutation]) -> Scenario:
    """Fold a mutation chain over a seed scenario, left to right."""
    for mutation in chain:
        scenario = apply_mutation(scenario, mutation)
    return scenario


# ---------------------------------------------------------------------------
# Generation (seeded)
# ---------------------------------------------------------------------------

def _pick(rng, pool):
    return pool[int(rng.integers(len(pool)))]


def _numeric_keys(scenario: Scenario) -> list[str]:
    doc = _parse_or_none(scenario.files.get("vars.yml", ""))
    if not isinstance(doc, dict):
        return []
    return sorted(
        k for k, v in doc.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    )


def _all_keys(scenario: Scenario) -> list[str]:
    doc = _parse_or_none(scenario.files.get("vars.yml", ""))
    return sorted(doc) if isinstance(doc, dict) else []


def _list_keys(scenario: Scenario) -> list[str]:
    doc = _parse_or_none(scenario.files.get("vars.yml", ""))
    if not isinstance(doc, dict):
        return []
    return sorted(k for k, v in doc.items() if isinstance(v, list))


def _gen_vars_widen(scenario, rng):
    keys = _numeric_keys(scenario)
    if not keys:
        return None
    return Mutation("vars-widen", {
        "key": _pick(rng, keys), "factor": _pick(rng, _WIDEN_FACTORS),
    })


def _gen_vars_boundary(scenario, rng):
    keys = _numeric_keys(scenario)
    if not keys:
        return None
    return Mutation("vars-boundary", {
        "key": _pick(rng, keys), "value": _pick(rng, _BOUNDARY_VALUES),
    })


def _gen_vars_type_flip(scenario, rng):
    keys = _numeric_keys(scenario)
    if not keys:
        return None
    return Mutation("vars-type-flip", {
        "key": _pick(rng, keys), "kind": _pick(rng, _TYPE_FLIPS),
    })


def _gen_vars_drop(scenario, rng):
    keys = [k for k in _all_keys(scenario) if k != "runner"]
    if not keys:
        return None
    return Mutation("vars-drop", {"key": _pick(rng, keys)})


def _gen_vars_list(scenario, rng):
    keys = _list_keys(scenario)
    if not keys:
        return None
    return Mutation("vars-list", {
        "key": _pick(rng, keys), "op": _pick(rng, _LIST_OPS),
    })


def _gen_stages(scenario, rng):
    return Mutation(
        "stages-optional", {"stages": list(_pick(rng, _OPTIONAL_STAGE_POOL))}
    )


def _gen_seed(scenario, rng):
    return Mutation("seed-set", {"value": int(rng.integers(0, 10_000))})


def _gen_travis_add(scenario, rng):
    if scenario.travis is None:
        return None
    return Mutation("travis-env-add", {"line": _pick(rng, _TRAVIS_ENV_LINES)})


def _gen_travis_drop(scenario, rng):
    if scenario.travis is None:
        return None
    return Mutation("travis-env-drop", {"index": int(rng.integers(0, 8))})


def _gen_travis_garble(scenario, rng):
    bad = (
        "env: [a: b\n", "language: python\nenv:\n  oops\n", "\t- tabs\n",
        "script: {unclosed\n", "language: python\nscript: 42\n",
    )
    return Mutation("travis-garble", {"text": _pick(rng, bad)})


def _gen_hosts(scenario, rng):
    return Mutation("hosts-set", {"count": _pick(rng, _HOST_COUNTS)})


def _gen_fault_spec(scenario, rng):
    if rng.random() < 0.25:
        return Mutation("fault-spec", {"spec": _pick(rng, _GARBLED_SPECS)})
    clause = _pick(rng, _FAULT_CLAUSES).format(t=_pick(rng, _FAULT_TARGETS))
    return Mutation("fault-spec", {"spec": clause})


def _gen_crash_spec(scenario, rng):
    if rng.random() < 0.25:
        return Mutation("crash-spec", {"spec": _pick(rng, _GARBLED_SPECS)})
    clause = _pick(rng, _CRASH_CLAUSES).format(t=_pick(rng, _CRASH_TARGETS))
    return Mutation("crash-spec", {"spec": clause})


def _gen_aver_tighten(scenario, rng):
    source = scenario.files.get("validations.aver", "")
    # Tighten the first "> <number>" comparison into an unreachable bound.
    match = re.search(r">\s*([0-9.]+)", source)
    if not match:
        return None
    return Mutation("aver-rewrite", {
        "find": match.group(0),
        "replace": f"> {_pick(rng, (1000, 10**6, 10**9))}",
    })


MUTATION_RULES.update({
    "vars-widen": (_mutate_vars, _gen_vars_widen),
    "vars-boundary": (_mutate_vars, _gen_vars_boundary),
    "vars-type-flip": (_mutate_vars, _gen_vars_type_flip),
    "vars-drop": (_mutate_vars, _gen_vars_drop),
    "vars-list": (_mutate_vars, _gen_vars_list),
    "stages-optional": (_mutate_vars, _gen_stages),
    "seed-set": (_mutate_vars, _gen_seed),
    "travis-env-add": (_mutate_travis, _gen_travis_add),
    "travis-env-drop": (_mutate_travis, _gen_travis_drop),
    "travis-garble": (_mutate_travis, _gen_travis_garble),
    "hosts-set": (_mutate_scalar_field, _gen_hosts),
    "fault-spec": (_mutate_scalar_field, _gen_fault_spec),
    "crash-spec": (_mutate_scalar_field, _gen_crash_spec),
    "aver-rewrite": (_mutate_aver, _gen_aver_tighten),
})

#: Stable generation order (dict order is insertion order, but be explicit).
_RULE_ORDER = tuple(sorted(MUTATION_RULES))


def generate_mutation(scenario: Scenario, rng) -> Mutation:
    """Draw one applicable mutation for *scenario* from the seeded *rng*.

    Rules whose preconditions fail (no numeric vars, no travis file...)
    yield ``None`` from their generator and another rule is drawn; the
    all-purpose rules (``seed-set``, ``hosts-set``, spec synthesis)
    guarantee termination.
    """
    while True:
        rule = _RULE_ORDER[int(rng.integers(len(_RULE_ORDER)))]
        mutation = MUTATION_RULES[rule][1](scenario, rng)
        if mutation is not None:
            return mutation


# ---------------------------------------------------------------------------
# Serve-API payload grammar (adversarial HTTP bodies)
# ---------------------------------------------------------------------------

#: Experiment names a hostile or confused client might submit.
_SERVE_EXPERIMENTS = (
    "alpha", "exp", "", " ", "../../etc/passwd", "exp\x00null",
    "e" * 200, "ëxpérïment", "exp;rm -rf /", "None", "..",
)

#: Tenant ids probing the ``TENANT_RE`` admission gate.
_SERVE_TENANTS = (
    "default", "tenant-1", "", " ", "../x", "t/t", "a" * 64, "a" * 65,
    ".leading-dot", "ünïcode", "-dash-first",
)

#: Structurally broken bodies: each must get a clean 400, never a 500.
_SERVE_BROKEN_BODIES = (
    b"", b"{", b"{not json", b"[1, 2, 3]", b'"just a string"', b"42",
    b"null", b"true", b'{"experiment": }', b"\xff\xfe not utf-8",
    b'{"experiment": "a"' + b" " * 512,  # truncated object, padded
    b"[" * 600 + b"]" * 600,             # deeply nested, still valid JSON
)


def generate_serve_payload(rng) -> bytes:
    """Draw one adversarial ``POST /v1/jobs`` body from the seeded *rng*.

    The grammar mixes structurally broken bodies with well-formed JSON
    whose *fields* are hostile: wrong types, bogus tenants, path-shaped
    experiment names, and oversized padding that trips the 64 KiB
    admission bound.  The serve API's contract — checked by the
    adversarial tests — is a clean 4xx JSON error for every one of
    these, never a traceback and never a 500.  Deterministic: the same
    rng state yields the same byte sequence.
    """
    import json

    shape = int(rng.integers(6))
    if shape == 0:
        return bytes(_pick(rng, _SERVE_BROKEN_BODIES))
    if shape == 1:
        # Well-formed JSON, wrong field types.
        experiment = _pick(
            rng, (42, None, True, ["alpha"], {"name": "alpha"}, 1.5)
        )
        return json.dumps({"experiment": experiment}).encode("utf-8")
    if shape == 2:
        # Hostile tenant against the admission regex.
        return json.dumps(
            {
                "experiment": _pick(rng, _SERVE_EXPERIMENTS),
                "tenant": _pick(rng, _SERVE_TENANTS),
            }
        ).encode("utf-8")
    if shape == 3:
        # Unknown / path-shaped experiment names, tenant omitted.
        return json.dumps(
            {"experiment": _pick(rng, _SERVE_EXPERIMENTS)}
        ).encode("utf-8")
    if shape == 4:
        # Oversized body: valid JSON padded past the 64 KiB bound.
        pad = "x" * int(rng.integers(65_536, 80_000))
        return json.dumps(
            {"experiment": "alpha", "padding": pad}
        ).encode("utf-8")
    # Extra unknown fields riding along a plausible submission.
    return json.dumps(
        {
            "experiment": _pick(rng, _SERVE_EXPERIMENTS),
            "tenant": "default",
            "priority": int(rng.integers(-5, 5)),
            "unknown": {"nested": [None, {}]},
        }
    ).encode("utf-8")

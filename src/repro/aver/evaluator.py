"""Evaluating Aver statements against experiment results.

Semantics:

* ``when`` clauses with concrete values **filter** the results table.
* ``when column=*`` clauses **quantify**: the expectation must hold inside
  every distinct-value group of that column (the Cartesian product across
  several wildcard columns).  This is what
  ``when workload=* and machine=*`` in the paper's Listing 3 means.
* Inside a group, a :class:`~repro.aver.ast.Column` evaluates to the
  column's vector; comparisons between vectors/scalars are evaluated
  row-wise and then **universally quantified** ("every row satisfies").
* Aggregates and trend validators reduce vectors before comparison.

Vectors are tuples of floats (a string column is a list of its values),
and arithmetic follows numpy's rules on plain floats:

* A scalar broadcasts against a vector, and arithmetic on a vector is
  element-wise IEEE arithmetic: ``x / 0`` is ``inf`` or ``nan`` and ``x
  % 0`` is ``nan``, never an error, so a comparison over the result
  fails with ``comparison over NaN/inf values``.
* Arithmetic on two scalars is Python's: dividing by zero fails with
  ``division by zero``.
* Two vectors of unequal length fail to compare, and fail arithmetic
  unless one of them has length one (which broadcasts, as in numpy).

The entry point is :func:`check`, returning a :class:`ValidationResult`
per statement with per-group detail — the report a Popper pipeline stores
next to ``results.csv``.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.aver.ast import (
    Arith,
    Boolean,
    BoolOp,
    Column,
    Compare,
    Expr,
    FuncCall,
    Not,
    Number,
    Statement,
    String,
)
from repro.aver.functions import FUNCTIONS
from repro.aver.parser import parse_statement
from repro.common.errors import AverEvalError
from repro.common.tables import MetricsTable

__all__ = [
    "ContextFunction",
    "GroupResult",
    "ValidationResult",
    "evaluate_statement",
    "check",
    "check_all",
]


@dataclass(frozen=True)
class GroupResult:
    """Verdict for one wildcard-group binding."""

    binding: tuple[tuple[str, Any], ...]
    passed: bool
    detail: str = ""

    def describe(self) -> str:
        if not self.binding:
            scope = "<all rows>"
        else:
            scope = ", ".join(f"{k}={v}" for k, v in self.binding)
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {scope}{extra}"


@dataclass(frozen=True)
class ValidationResult:
    """Verdict for one statement across all its groups."""

    statement: Statement
    groups: tuple[GroupResult, ...]

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.groups)

    def describe(self) -> str:
        head = f"{'PASS' if self.passed else 'FAIL'}: {self.statement.source}"
        lines = [head] + ["  " + g.describe() for g in self.groups]
        return "\n".join(lines)


#: A contextual function: called with ``(name, unevaluated_args, evaluator)``
#: so it can inspect the raw AST (e.g. read a Column's *name* for a history
#: lookup) and still evaluate arguments against the current group.
ContextFunction = Callable[[str, tuple, "_Evaluator"], Any]


class _Evaluator:
    """Evaluates one expression against one group of rows.

    *context* maps function names to :data:`ContextFunction`\\ s bound to
    run state (e.g. ``no_regression`` bound to a profile history by
    :class:`repro.check.context.RegressionContext`); they shadow the
    stateless :data:`~repro.aver.functions.FUNCTIONS` builtins.
    """

    def __init__(
        self,
        group: MetricsTable,
        context: Mapping[str, ContextFunction] | None = None,
    ) -> None:
        self.group = group
        self.context = dict(context or {})

    def eval(self, node: Expr) -> Any:
        method = getattr(self, f"_eval_{type(node).__name__.lower()}", None)
        if method is None:  # pragma: no cover - exhaustive over AST
            raise AverEvalError(f"cannot evaluate node {node!r}")
        return method(node)

    # -- leaves ---------------------------------------------------------------
    def _eval_number(self, node: Number) -> float:
        return node.value

    def _eval_string(self, node: String) -> str:
        return node.value

    def _eval_boolean(self, node: Boolean) -> bool:
        return node.value

    def _eval_column(self, node: Column) -> Any:
        if node.name not in self.group.columns:
            raise AverEvalError(
                f"no column {node.name!r} in results "
                f"(have {self.group.columns})"
            )
        values = self.group.column(node.name)
        if all(isinstance(v, (int, float, bool)) or v is None for v in values):
            return tuple(self.group.numeric(node.name))
        return values  # string column: list of values

    # -- function calls -----------------------------------------------------------
    def _eval_funccall(self, node: FuncCall) -> Any:
        if node.name == "count" and not node.args:
            return float(len(self.group))
        if node.name in self.context:
            return self.context[node.name](node.name, node.args, self)
        fn = FUNCTIONS.get(node.name)
        if fn is None:
            raise AverEvalError(
                f"unknown function {node.name!r} "
                f"(known: {sorted(FUNCTIONS)})"
            )
        args = [self.eval(arg) for arg in node.args]
        return fn(node.name, args)

    # -- arithmetic ------------------------------------------------------------------
    def _eval_arith(self, node: Arith) -> Any:
        left = self.eval(node.left)
        right = self.eval(node.right)
        for side, value in (("left", left), ("right", right)):
            if isinstance(value, (str, list)):
                raise AverEvalError(
                    f"arithmetic on non-numeric {side} operand of {node.op!r}"
                )
        op = _ARITH.get(node.op)
        if op is None:
            raise AverEvalError(f"unknown arithmetic operator {node.op!r}")
        if isinstance(left, tuple) or isinstance(right, tuple):
            return _elementwise(op, left, right)
        try:
            return op(left, right)
        except ZeroDivisionError as exc:
            raise AverEvalError("division by zero") from exc

    # -- comparisons --------------------------------------------------------------------
    def _eval_compare(self, node: Compare) -> bool:
        left = self.eval(node.left)
        right = self.eval(node.right)
        op = "==" if node.op == "=" else node.op
        # String comparison (column of strings vs literal, or two strings).
        if isinstance(left, list) or isinstance(right, list) or isinstance(
            left, str
        ) or isinstance(right, str):
            if op not in ("==", "!="):
                raise AverEvalError(
                    f"ordering comparison {op!r} on non-numeric values"
                )
            lvals = left if isinstance(left, list) else [left]
            rvals = right if isinstance(right, list) else [right]
            if len(lvals) != len(rvals) and 1 not in (len(lvals), len(rvals)):
                raise AverEvalError("comparison of unequal-length columns")
            results = [
                (a == b) if op == "==" else (a != b)
                for a, b in _broadcast(lvals, rvals)
            ]
            return all(results)
        if (
            isinstance(left, tuple)
            and isinstance(right, tuple)
            and len(left) != len(right)
        ):
            raise AverEvalError(
                f"comparison of unequal-length vectors ({len(left)} vs {len(right)})"
            )
        lvals = _numbers(left, "left")
        rvals = _numbers(right, "right")
        if not all(map(math.isfinite, lvals + rvals)):
            raise AverEvalError("comparison over NaN/inf values")
        compare = _COMPARE[op]
        return all(compare(a, b) for a, b in _broadcast(lvals, rvals))

    # -- boolean -----------------------------------------------------------------------------
    def _eval_boolop(self, node: BoolOp) -> bool:
        left = self._as_bool(self.eval(node.left), node.op)
        if node.op == "and":
            return left and self._as_bool(self.eval(node.right), node.op)
        if node.op == "or":
            return left or self._as_bool(self.eval(node.right), node.op)
        raise AverEvalError(f"unknown boolean operator {node.op!r}")

    def _eval_not(self, node: Not) -> bool:
        return not self._as_bool(self.eval(node.operand), "not")

    @staticmethod
    def _as_bool(value: Any, context: str) -> bool:
        if _is_bool(value):
            return bool(value)
        raise AverEvalError(
            f"operand of {context!r} is not boolean (got {type(value).__name__}); "
            "use a comparison or validator function"
        )


_ARITH: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}

_COMPARE: dict[str, Callable[[float, float], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _ieee(op: Callable[[Any, Any], Any], a: float, b: float) -> float:
    """``op(a, b)``, with IEEE's ``inf``/``nan`` where Python raises."""
    try:
        return op(a, b)
    except ZeroDivisionError:
        if op is operator.mod or a == 0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _broadcast(lvals: Sequence[Any], rvals: Sequence[Any]) -> Iterator[tuple]:
    """Row pairs of two operands; a side of length one repeats."""
    if len(lvals) == 1:
        lvals = lvals * len(rvals)
    if len(rvals) == 1:
        rvals = rvals * len(lvals)
    return zip(lvals, rvals)


def _elementwise(
    op: Callable[[Any, Any], Any], left: Any, right: Any
) -> tuple[float, ...]:
    """*op* row by row; a scalar (or a vector of one) broadcasts."""
    lvals = left if isinstance(left, tuple) else (left,)
    rvals = right if isinstance(right, tuple) else (right,)
    if len(lvals) != len(rvals) and 1 not in (len(lvals), len(rvals)):
        raise AverEvalError(
            f"arithmetic on unequal-length vectors ({len(lvals)} vs {len(rvals)})"
        )
    return tuple(_ieee(op, a, b) for a, b in _broadcast(lvals, rvals))


def _numbers(value: Any, side: str) -> tuple[float, ...]:
    """A comparison operand as floats: a vector, or a scalar as one."""
    if isinstance(value, tuple):
        return value
    try:
        return (float(value),)
    except (TypeError, ValueError) as exc:
        raise AverEvalError(f"comparison of non-numeric {side} operand") from exc


def _is_bool(value: Any) -> bool:
    """A Python bool, or a numpy one from a registered function."""
    if isinstance(value, bool):
        return True
    numpy = sys.modules.get("numpy")
    return numpy is not None and isinstance(value, numpy.bool_)


def _groups_for(
    statement: Statement, table: MetricsTable
) -> list[tuple[tuple[tuple[str, Any], ...], MetricsTable]]:
    filtered = table
    for clause in statement.filter_clauses:
        if clause.column not in table.columns:
            raise AverEvalError(
                f"when-clause column {clause.column!r} not in results"
            )
        filtered = filtered.where_equals(**{clause.column: clause.value})
    if len(filtered) == 0:
        raise AverEvalError("when-clauses matched no rows")
    wildcards = statement.wildcard_columns
    for column in wildcards:
        if column not in table.columns:
            raise AverEvalError(
                f"when-clause column {column!r} not in results"
            )
    if not wildcards:
        return [((), filtered)]
    groups = filtered.group_by(*wildcards)
    return [
        (tuple(zip(wildcards, key)), group)
        for key, group in sorted(groups.items(), key=lambda kv: str(kv[0]))
    ]


def evaluate_statement(
    statement: Statement,
    table: MetricsTable,
    context: Mapping[str, ContextFunction] | None = None,
) -> ValidationResult:
    """Evaluate a parsed statement against a results table.

    *context* supplies run-state-bound functions (see
    :class:`_Evaluator`); stateless validations pass nothing.
    """
    if len(table) == 0:
        raise AverEvalError("results table is empty")
    group_results: list[GroupResult] = []
    groups = _groups_for(statement, table)
    if not groups:
        raise AverEvalError("when-clauses matched no rows")
    for binding, group in groups:
        if len(group) == 0:
            group_results.append(
                GroupResult(binding=binding, passed=False, detail="empty group")
            )
            continue
        try:
            verdict = _Evaluator(group, context=context).eval(statement.expectation)
        except AverEvalError as exc:
            group_results.append(
                GroupResult(binding=binding, passed=False, detail=str(exc))
            )
            continue
        if not _is_bool(verdict):
            group_results.append(
                GroupResult(
                    binding=binding,
                    passed=False,
                    detail="expectation did not reduce to a boolean",
                )
            )
            continue
        group_results.append(GroupResult(binding=binding, passed=bool(verdict)))
    return ValidationResult(statement=statement, groups=tuple(group_results))


def check(
    source: str,
    table: MetricsTable,
    context: Mapping[str, ContextFunction] | None = None,
) -> ValidationResult:
    """Parse and evaluate one statement."""
    return evaluate_statement(parse_statement(source), table, context=context)


def check_all(
    sources: list[str] | str,
    table: MetricsTable,
    context: Mapping[str, ContextFunction] | None = None,
) -> list[ValidationResult]:
    """Evaluate many statements (a ``validations.aver`` file's worth)."""
    from repro.aver.parser import parse_file_text

    if isinstance(sources, str):
        statements = parse_file_text(sources)
    else:
        statements = [parse_statement(s) for s in sources]
    return [evaluate_statement(s, table, context=context) for s in statements]

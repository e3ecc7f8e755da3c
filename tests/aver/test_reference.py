"""Aver's plain-float builtins and arithmetic against their numpy reference.

Aver used to evaluate on numpy arrays.  It now computes on tuples of
floats, so that validating a cached result imports no numpy.  The numpy
implementation is kept here, unchanged, as the reference: on generated
tables with NaN, +-inf, ties, single rows, zeros and negatives, both
sides must give the same verdict or the same ``AverEvalError`` text.

* ``median``, ``min``, ``max``, ``count`` and every verdict built from
  exact float operations (row-wise arithmetic and comparison,
  ``monotonic_*``, ``within``) must agree exactly.
* The float-valued builtins (``avg``, ``sum``, ``stddev``,
  ``percentile``, ``scaling_exp``) must agree within 1e-12 relative.
  The absolute floor of 1e-12 covers a sum that cancels to zero, where
  two summation orders differ by a few ulps of the addends.
* A verdict that compares such a value with a threshold (``1 +- 0.08``
  for the scaling validators, ``constant``'s band, or a comparison
  literal) is checked unless the reference value lies within 1e-9
  relative of the threshold.

Values are tenths in [-100, 100], so distinct x values of a log-log fit
stay at least 0.1 apart.  A column is all positive (what the scaling
validators accept), any finite values, or finite values and one NaN or
+-inf.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aver import evaluator
from repro.aver.evaluator import check
from repro.aver.functions import FUNCTIONS
from repro.common.errors import AverEvalError
from repro.common.tables import MetricsTable

# -- the numpy reference: repro.aver.functions before plain floats ----------------

_LINEAR_EPS = 0.08


def _ref_as_vector(value, name, arg_index):
    array = np.asarray(value, dtype=np.float64)
    if array.ndim == 0:
        array = array.reshape(1)
    if array.size == 0:
        raise AverEvalError(f"{name}(): argument {arg_index} is empty")
    if np.any(~np.isfinite(array)):
        raise AverEvalError(f"{name}(): argument {arg_index} has NaN/inf values")
    return array


def _ref_as_scalar(value, name, arg_index):
    array = np.asarray(value, dtype=np.float64)
    if array.ndim != 0 and array.size != 1:
        raise AverEvalError(
            f"{name}(): argument {arg_index} must be a scalar, got a vector"
        )
    return float(array.reshape(-1)[0])


def ref_scaling_exponent(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise AverEvalError(
            f"scaling fit needs equal-length vectors ({x.size} vs {y.size})"
        )
    if x.size < 2:
        raise AverEvalError("scaling fit needs at least 2 points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise AverEvalError("scaling fit needs positive values")
    if np.unique(x).size < 2:
        raise AverEvalError("scaling fit needs at least 2 distinct x values")
    lx, ly = np.log(x), np.log(y)
    slope, _intercept = np.polyfit(lx, ly, 1)
    return float(slope)


def _need(name, args, count):
    if len(args) != count:
        raise AverEvalError(f"{name}() takes {count} arguments, got {len(args)}")


def _ref_xy(name, args):
    _need(name, args, 2)
    return _ref_as_vector(args[0], name, 0), _ref_as_vector(args[1], name, 1)


def _ref_sublinear(name, args):
    return ref_scaling_exponent(*_ref_xy(name, args)) < 1.0 - _LINEAR_EPS


def _ref_superlinear(name, args):
    return ref_scaling_exponent(*_ref_xy(name, args)) > 1.0 + _LINEAR_EPS


def _ref_linear(name, args):
    return abs(ref_scaling_exponent(*_ref_xy(name, args)) - 1.0) <= _LINEAR_EPS


def _ref_sorted_steps(name, args):
    x, y = _ref_xy(name, args)
    if x.size != y.size:
        raise AverEvalError(f"{name}(): vectors differ in length")
    return np.diff(y[np.argsort(x, kind="stable")])


def _ref_monotonic_inc(name, args):
    return bool(np.all(_ref_sorted_steps(name, args) >= -1e-12))


def _ref_monotonic_dec(name, args):
    return bool(np.all(_ref_sorted_steps(name, args) <= 1e-12))


def _ref_constant(name, args):
    if len(args) not in (1, 2):
        raise AverEvalError(f"{name}() takes 1 or 2 arguments, got {len(args)}")
    y = _ref_as_vector(args[0], name, 0)
    tol = _ref_as_scalar(args[1], name, 1) if len(args) == 2 else 0.05
    mean = float(np.mean(y))
    if mean == 0.0:
        return bool(np.all(np.abs(y) <= tol))
    return bool(np.max(np.abs(y - mean)) <= abs(mean) * tol)


def _ref_within(name, args):
    _need(name, args, 3)
    y = _ref_as_vector(args[0], name, 0)
    lo = _ref_as_scalar(args[1], name, 1)
    hi = _ref_as_scalar(args[2], name, 2)
    if lo > hi:
        raise AverEvalError(f"{name}(): lo > hi")
    return bool(np.all((y >= lo) & (y <= hi)))


def _ref_agg(fn):
    def wrapper(name, args):
        _need(name, args, 1)
        return float(fn(_ref_as_vector(args[0], name, 0)))

    return wrapper


def _ref_count(name, args):
    if len(args) == 0:
        raise AverEvalError("count() with no arguments is resolved by the evaluator")
    _need(name, args, 1)
    return float(_ref_as_vector(args[0], name, 0).size)


def _ref_percentile(name, args):
    _need(name, args, 2)
    y = _ref_as_vector(args[0], name, 0)
    q = _ref_as_scalar(args[1], name, 1)
    if not 0 <= q <= 100:
        raise AverEvalError(f"{name}(): percentile must be in [0, 100]")
    return float(np.percentile(y, q))


def _ref_scaling_exp(name, args):
    return ref_scaling_exponent(*_ref_xy(name, args))


REFERENCE = {
    "scaling_exp": _ref_scaling_exp,
    "sublinear": _ref_sublinear,
    "superlinear": _ref_superlinear,
    "linear": _ref_linear,
    "monotonic_inc": _ref_monotonic_inc,
    "monotonic_dec": _ref_monotonic_dec,
    "constant": _ref_constant,
    "within": _ref_within,
    "min": _ref_agg(np.min),
    "max": _ref_agg(np.max),
    "avg": _ref_agg(np.mean),
    "mean": _ref_agg(np.mean),
    "sum": _ref_agg(np.sum),
    "stddev": _ref_agg(lambda v: np.std(v, ddof=1) if v.size > 1 else 0.0),
    "median": _ref_agg(np.median),
    "count": _ref_count,
    "percentile": _ref_percentile,
}


# -- the numpy reference: the evaluator's columns, arithmetic and comparisons ------


class ReferenceEvaluator(evaluator._Evaluator):
    """``_Evaluator`` with its numpy column, arithmetic and comparison."""

    def _eval_column(self, node):
        values = super()._eval_column(node)
        return values if isinstance(values, list) else np.asarray(values)

    def _eval_funccall(self, node):
        if node.name == "count" and not node.args:
            return float(len(self.group))
        args = [self.eval(arg) for arg in node.args]
        return REFERENCE[node.name](node.name, args)

    def _eval_arith(self, node):
        left = self.eval(node.left)
        right = self.eval(node.right)
        for side, value in (("left", left), ("right", right)):
            if isinstance(value, (str, list)):
                raise AverEvalError(
                    f"arithmetic on non-numeric {side} operand of {node.op!r}"
                )
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                if node.op == "+":
                    return left + right
                if node.op == "-":
                    return left - right
                if node.op == "*":
                    return left * right
                if node.op == "/":
                    return left / right
                if node.op == "%":
                    return left % right
        except ZeroDivisionError as exc:
            raise AverEvalError("division by zero") from exc
        raise AverEvalError(f"unknown arithmetic operator {node.op!r}")

    def _eval_compare(self, node):
        left = self.eval(node.left)
        right = self.eval(node.right)
        op = "==" if node.op == "=" else node.op
        larr = np.asarray(left, dtype=np.float64)
        rarr = np.asarray(right, dtype=np.float64)
        if larr.ndim and rarr.ndim and larr.size != rarr.size:
            raise AverEvalError(
                f"comparison of unequal-length vectors ({larr.size} vs {rarr.size})"
            )
        if np.any(~np.isfinite(larr)) or np.any(~np.isfinite(rarr)):
            raise AverEvalError("comparison over NaN/inf values")
        ops = {
            "==": np.equal,
            "!=": np.not_equal,
            "<": np.less,
            "<=": np.less_equal,
            ">": np.greater,
            ">=": np.greater_equal,
        }
        return bool(np.all(ops[op](larr, rarr)))


def reference_check(source, table):
    with mock.patch.object(evaluator, "_Evaluator", ReferenceEvaluator):
        return check(source, table)


def verdicts(result):
    return [(g.binding, g.passed, g.detail) for g in result.groups]


# -- generated inputs -----------------------------------------------------------

NON_FINITE = (math.nan, math.inf, -math.inf)

positive = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0]),  # ties
    st.integers(1, 1000).map(lambda k: k / 10),
)
finite = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, -1.0]),  # zeros and ties
    st.integers(-1000, 1000).map(lambda k: k / 10),
)
value = st.one_of(finite, st.sampled_from(NON_FINITE))


@st.composite
def columns(draw, rows):
    kind = draw(st.sampled_from(["positive", "finite", "non-finite"]))
    elements = positive if kind == "positive" else finite
    values = draw(st.lists(elements, min_size=rows, max_size=rows))
    if kind == "non-finite":
        values[draw(st.integers(0, rows - 1))] = draw(st.sampled_from(NON_FINITE))
    return values


@st.composite
def tables(draw):
    """A table of 1-12 rows: numeric ``x`` and ``y``, string group ``g``."""
    rows = draw(st.integers(1, 12))
    xs, ys = draw(columns(rows)), draw(columns(rows))
    gs = draw(st.lists(st.sampled_from("ab"), min_size=rows, max_size=rows))
    return MetricsTable(
        ["g", "x", "y"],
        [{"g": g, "x": x, "y": y} for g, x, y in zip(gs, xs, ys)],
    )


def literal(number):
    """Aver source for *number*; the parser reads it back exactly."""
    return repr(float(number)) if number >= 0 else f"(-{repr(-float(number))})"


def near(reference, threshold):
    """*reference* lies within 1e-9 of *threshold*, relative above 1."""
    return abs(reference - threshold) <= 1e-9 * max(abs(threshold), 1.0)


def outcome(fn, name, args):
    try:
        return fn(name, args), None
    except AverEvalError as exc:
        return None, str(exc)


# -- the tests ------------------------------------------------------------------------

EXACT = ("min", "max", "median", "count")
FLOAT = ("avg", "mean", "sum", "stddev", "percentile", "scaling_exp")
SCALING = {"sublinear", "superlinear", "linear"}
VERDICTS = ("monotonic_inc", "monotonic_dec", "within", "constant", *sorted(SCALING))


def arguments(name, draw, table):
    """Evaluated arguments for *name*: columns as the evaluator passes them."""
    x, y = tuple(table.numeric("x")), tuple(table.numeric("y"))
    if name == "percentile":
        q = st.one_of(st.integers(0, 100).map(float), st.floats(0, 100), value)
        return [y, draw(q)]
    if name == "within":
        return [y, draw(finite), draw(finite)]
    if name == "constant":
        tolerance = st.sampled_from([0.0, 0.001, 0.05, 0.5, 2.0])
        return [y, *draw(st.lists(tolerance, max_size=1))]
    if name in EXACT + FLOAT and name != "scaling_exp":
        return [y]
    return [x, y]


def numpy_arguments(args):
    return [np.asarray(a) if isinstance(a, tuple) else a for a in args]


@pytest.mark.parametrize("name", EXACT + FLOAT + VERDICTS)
@settings(max_examples=150, deadline=None)
@given(data=st.data(), table=tables())
def test_builtin_matches_the_reference(name, data, table):
    args = arguments(name, data.draw, table)
    ours, our_error = outcome(FUNCTIONS[name], name, args)
    ref, ref_error = outcome(REFERENCE[name], name, numpy_arguments(args))
    assert our_error == ref_error
    if ref_error is not None:
        return
    if name in EXACT:
        assert ours == ref
    elif name in FLOAT:
        assert math.isclose(ours, ref, rel_tol=1e-12, abs_tol=1e-12), (ours, ref)
    elif name in SCALING:
        slope = ref_scaling_exponent(*numpy_arguments(args))
        if not (near(slope, 1 - _LINEAR_EPS) or near(slope, 1 + _LINEAR_EPS)):
            assert ours == ref
    elif name == "constant":
        y = np.asarray(args[0])
        mean = float(np.mean(y))
        band = abs(mean) * (args[1] if len(args) == 2 else 0.05)
        if not (near(mean, 0.0) or near(float(np.max(np.abs(y - mean))), band)):
            assert ours == ref
    else:
        assert ours == ref


@settings(max_examples=200, deadline=None)
@given(
    table=tables(),
    name=st.sampled_from(("avg", "sum", "stddev", "median", "min", "max")),
    op=st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
    threshold=finite,
    grouped=st.booleans(),
)
def test_aggregate_verdicts_match_the_reference(table, name, op, threshold, grouped):
    prefix = "when g=* " if grouped else ""
    source = f"{prefix}expect {name}(y) {op} {literal(threshold)}"
    ours = verdicts(check(source, table))
    ref = verdicts(reference_check(source, table))
    assert [(b, d) for b, _, d in ours] == [(b, d) for b, _, d in ref], source
    for (binding, passed, _), (_, ref_passed, _) in zip(ours, ref):
        group = table.where_equals(**dict(binding))
        y = np.asarray(group.numeric("y"))
        reference, _ = outcome(REFERENCE[name], name, [y])
        if reference is None or not near(reference, threshold):
            assert passed == ref_passed, source


OPERATORS = ("+", "-", "*", "/", "%")


@st.composite
def expressions(draw, depth=2):
    """Aver arithmetic over ``x``, ``y`` and literals (zero included)."""
    leaves = st.one_of(
        st.sampled_from(["x", "y"]),
        st.sampled_from([0.0, 1.0, 2.5, -3.0]).map(literal),
        finite.map(literal),
    )
    if depth == 0:
        return draw(leaves)
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(leaves)
    if kind == 1:
        return f"-({draw(expressions(depth - 1))})"
    op = draw(st.sampled_from(OPERATORS))
    return f"({draw(expressions(depth - 1))} {op} {draw(expressions(depth - 1))})"


@settings(max_examples=300, deadline=None)
@given(
    table=tables(),
    left=expressions(),
    right=expressions(),
    op=st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
    grouped=st.booleans(),
)
def test_arithmetic_and_comparison_match_the_reference(
    table, left, right, op, grouped
):
    prefix = "when g=* " if grouped else ""
    source = f"{prefix}expect {left} {op} {right}"
    ours = verdicts(check(source, table))
    assert ours == verdicts(reference_check(source, table)), source

"""Builtin functions of the Aver language.

Two families:

* **Trend validators** (``sublinear``, ``superlinear``, ``linear``,
  ``monotonic_inc``, ``monotonic_dec``, ``constant``, ``within``) — take
  column vectors and return a boolean verdict about the relationship.
  Scaling verdicts fit ``y = c * x^b`` by least squares in log-log space;
  ``b`` is the scaling exponent (sublinear: ``b < 1``, matching the
  published Aver semantics where a decreasing curve is also sublinear).
* **Aggregates** (``min``, ``max``, ``avg``, ``sum``, ``count``,
  ``stddev``, ``median``, ``percentile``) — reduce a column vector to a
  scalar usable in comparisons.

A column arrives as a tuple of floats, and every builtin computes on
plain floats: the tables are small (tens to a few hundred rows), and a
cached ``popper run`` validates its results without importing numpy.
The numpy versions these replace are kept as the reference in
``tests/aver/test_reference.py``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import Any, Callable

from repro.common.errors import AverEvalError

__all__ = ["FUNCTIONS", "scaling_exponent", "register_function"]

#: Tolerance band around an exponent of exactly 1 ("linear").
_LINEAR_EPS = 0.08


def _floats(value: Any, name: str, arg_index: int) -> tuple[float, ...]:
    """*value* as a tuple of floats; a scalar is a vector of one."""
    if isinstance(value, str) or not isinstance(value, Iterable):
        value = (value,)
    try:
        return tuple(float(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise AverEvalError(
            f"{name}(): argument {arg_index} is not numeric"
        ) from exc


def _as_vector(value: Any, name: str, arg_index: int) -> tuple[float, ...]:
    vector = _floats(value, name, arg_index)
    if not vector:
        raise AverEvalError(f"{name}(): argument {arg_index} is empty")
    if not all(map(math.isfinite, vector)):
        raise AverEvalError(f"{name}(): argument {arg_index} has NaN/inf values")
    return vector


def _as_scalar(value: Any, name: str, arg_index: int) -> float:
    vector = _floats(value, name, arg_index)
    if len(vector) != 1:
        raise AverEvalError(
            f"{name}(): argument {arg_index} must be a scalar, got a vector"
        )
    return vector[0]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def scaling_exponent(x: Sequence[float], y: Sequence[float]) -> float:
    """Least-squares exponent ``b`` of ``y = c * x^b`` (log-log fit).

    *x* and *y* are any sequences of numbers; the slope is the
    closed-form least-squares solution over ``(log x, log y)``.
    """
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    if len(x) != len(y):
        raise AverEvalError(
            f"scaling fit needs equal-length vectors ({len(x)} vs {len(y)})"
        )
    if len(x) < 2:
        raise AverEvalError("scaling fit needs at least 2 points")
    if any(v <= 0 for v in x) or any(v <= 0 for v in y):
        raise AverEvalError("scaling fit needs positive values")
    lx = [math.log(v) for v in x]
    ly = [math.log(v) for v in y]
    mx, my = _mean(lx), _mean(ly)
    dx = [v - mx for v in lx]
    sxx = sum(d * d for d in dx)
    # Distinct x values whose logarithms round to one float fit no slope.
    if len(set(x)) < 2 or sxx == 0.0:
        raise AverEvalError("scaling fit needs at least 2 distinct x values")
    return sum(d * (v - my) for d, v in zip(dx, ly)) / sxx


def _fn_sublinear(name: str, args: list[Any]) -> bool:
    _need(name, args, 2)
    x = _as_vector(args[0], name, 0)
    y = _as_vector(args[1], name, 1)
    return scaling_exponent(x, y) < 1.0 - _LINEAR_EPS


def _fn_superlinear(name: str, args: list[Any]) -> bool:
    _need(name, args, 2)
    x = _as_vector(args[0], name, 0)
    y = _as_vector(args[1], name, 1)
    return scaling_exponent(x, y) > 1.0 + _LINEAR_EPS


def _fn_linear(name: str, args: list[Any]) -> bool:
    _need(name, args, 2)
    x = _as_vector(args[0], name, 0)
    y = _as_vector(args[1], name, 1)
    return abs(scaling_exponent(x, y) - 1.0) <= _LINEAR_EPS


def _sorted_by_x(x: Sequence[float], y: Sequence[float]) -> list[float]:
    return [y[i] for i in sorted(range(len(x)), key=x.__getitem__)]


def _fn_monotonic_inc(name: str, args: list[Any]) -> bool:
    _need(name, args, 2)
    x = _as_vector(args[0], name, 0)
    y = _as_vector(args[1], name, 1)
    if len(x) != len(y):
        raise AverEvalError(f"{name}(): vectors differ in length")
    ordered = _sorted_by_x(x, y)
    return all(b - a >= -1e-12 for a, b in zip(ordered, ordered[1:]))


def _fn_monotonic_dec(name: str, args: list[Any]) -> bool:
    _need(name, args, 2)
    x = _as_vector(args[0], name, 0)
    y = _as_vector(args[1], name, 1)
    if len(x) != len(y):
        raise AverEvalError(f"{name}(): vectors differ in length")
    ordered = _sorted_by_x(x, y)
    return all(b - a <= 1e-12 for a, b in zip(ordered, ordered[1:]))


def _fn_constant(name: str, args: list[Any]) -> bool:
    """``constant(y [, tol])``: max relative deviation from the mean <= tol."""
    if len(args) not in (1, 2):
        raise AverEvalError(f"{name}() takes 1 or 2 arguments, got {len(args)}")
    y = _as_vector(args[0], name, 0)
    tol = _as_scalar(args[1], name, 1) if len(args) == 2 else 0.05
    mean = _mean(y)
    if mean == 0.0:
        return all(abs(v) <= tol for v in y)
    return max(abs(v - mean) for v in y) <= abs(mean) * tol


def _fn_within(name: str, args: list[Any]) -> bool:
    """``within(y, lo, hi)``: every value in [lo, hi]."""
    _need(name, args, 3)
    y = _as_vector(args[0], name, 0)
    lo = _as_scalar(args[1], name, 1)
    hi = _as_scalar(args[2], name, 2)
    if lo > hi:
        raise AverEvalError(f"{name}(): lo > hi")
    return all(lo <= v <= hi for v in y)


def _need(name: str, args: list[Any], count: int) -> None:
    if len(args) != count:
        raise AverEvalError(f"{name}() takes {count} arguments, got {len(args)}")


def _agg(
    fn: Callable[[tuple[float, ...]], float]
) -> Callable[[str, list[Any]], float]:
    def wrapper(name: str, args: list[Any]) -> float:
        _need(name, args, 1)
        return float(fn(_as_vector(args[0], name, 0)))

    return wrapper


def _fn_count(name: str, args: list[Any]) -> float:
    if len(args) == 0:
        raise AverEvalError(
            "count() with no arguments is resolved by the evaluator"
        )
    _need(name, args, 1)
    return float(len(_as_vector(args[0], name, 0)))


def _stddev(values: Sequence[float]) -> float:
    """Sample standard deviation (``n - 1`` divisor); 0 for one value."""
    if len(values) < 2:
        return 0.0
    mean = _mean(values)
    squares = sum((v - mean) * (v - mean) for v in values)
    return math.sqrt(squares / (len(values) - 1))


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _percentile(values: Sequence[float], q: float) -> float:
    """numpy's default ("linear") percentile, written out.

    The weight is the fractional part of ``(n - 1) * q / 100``.  As in
    numpy's ``_lerp``, a weight of one half or more interpolates back
    from the upper neighbour, which keeps every result bit-identical to
    numpy's.
    """
    ordered = sorted(values)
    index = (len(ordered) - 1) * (q / 100)
    if index >= len(ordered) - 1:
        return ordered[-1]
    below = math.floor(index)
    weight = index - below
    a, b = ordered[below], ordered[below + 1]
    if weight >= 0.5:
        return b - (b - a) * (1 - weight)
    return a + (b - a) * weight


def _fn_percentile(name: str, args: list[Any]) -> float:
    _need(name, args, 2)
    y = _as_vector(args[0], name, 0)
    q = _as_scalar(args[1], name, 1)
    if not 0 <= q <= 100:
        raise AverEvalError(f"{name}(): percentile must be in [0, 100]")
    return _percentile(y, q)


def _fn_scaling_exp(name: str, args: list[Any]) -> float:
    """``scaling_exp(x, y)``: the fitted exponent itself, as a scalar —
    lets assertions bound it directly (``expect scaling_exp(nodes, time)
    < -0.5``)."""
    _need(name, args, 2)
    x = _as_vector(args[0], name, 0)
    y = _as_vector(args[1], name, 1)
    return scaling_exponent(x, y)


def _fn_no_regression(name: str, args: list[Any]) -> bool:
    """``no_regression(metric)``: the candidate series for *metric* shows
    no firm degradation against the commit-attached baseline profiles.

    The real implementation needs run state (a profile history and the
    current commit), so it is bound per run by
    :class:`repro.check.context.RegressionContext` and passed to the
    evaluator as a contextual function.  This registry entry exists so
    the name parses everywhere and fails with an explanation — rather
    than "unknown function" — when evaluated without that context.
    """
    raise AverEvalError(
        f"{name}() needs a regression context (commit-attached profile "
        "history); it is available when validations run through the "
        "pipeline, not in standalone evaluation"
    )


FUNCTIONS: dict[str, Callable[[str, list[Any]], Any]] = {
    "scaling_exp": _fn_scaling_exp,
    "no_regression": _fn_no_regression,
    "sublinear": _fn_sublinear,
    "superlinear": _fn_superlinear,
    "linear": _fn_linear,
    "monotonic_inc": _fn_monotonic_inc,
    "monotonic_dec": _fn_monotonic_dec,
    "constant": _fn_constant,
    "within": _fn_within,
    "min": _agg(min),
    "max": _agg(max),
    "avg": _agg(_mean),
    "mean": _agg(_mean),
    "sum": _agg(sum),
    "stddev": _agg(_stddev),
    "median": _agg(_median),
    "count": _fn_count,
    "percentile": _fn_percentile,
}


def register_function(name: str, fn: Callable[[str, list[Any]], Any]) -> None:
    """Register a domain-specific validation function.

    *fn* is called as ``fn(name, args)`` with the evaluated arguments: a
    numeric column arrives as a tuple of floats (a sequence, not a numpy
    array), a string column as a list, and a literal or an aggregate as
    a scalar.  It returns a bool (a validator) or a number (an
    aggregate).
    """
    if name in FUNCTIONS:
        raise AverEvalError(f"function already registered: {name!r}")
    FUNCTIONS[name] = fn

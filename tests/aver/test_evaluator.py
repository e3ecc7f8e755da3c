"""Tests for Aver evaluation semantics and builtin functions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.aver.evaluator import check, check_all
from repro.aver.functions import FUNCTIONS, register_function, scaling_exponent
from repro.common.errors import AverEvalError
from repro.common.tables import MetricsTable


@pytest.fixture
def gassyfs_table():
    """Results shaped like the paper's GassyFS experiment: sublinear
    scaling on both machines and workloads."""
    table = MetricsTable(["workload", "machine", "nodes", "time"])
    for workload in ("git-compile", "kernel-untar"):
        for machine in ("cloudlab", "ec2"):
            base = 100.0 if machine == "cloudlab" else 130.0
            for nodes in (1, 2, 4, 8):
                # time ~ base / nodes**0.6 : sublinear improvement
                table.append(
                    {
                        "workload": workload,
                        "machine": machine,
                        "nodes": nodes,
                        "time": base / nodes**0.6,
                    }
                )
    return table


class TestScalingExponent:
    def test_linear_data(self):
        x = np.array([1, 2, 4, 8], dtype=float)
        assert scaling_exponent(x, 3 * x) == pytest.approx(1.0)

    def test_quadratic_data(self):
        x = np.array([1, 2, 4, 8], dtype=float)
        assert scaling_exponent(x, x**2) == pytest.approx(2.0)

    def test_needs_two_distinct_points(self):
        with pytest.raises(AverEvalError):
            scaling_exponent(np.array([2.0, 2.0]), np.array([1.0, 2.0]))

    def test_positive_only(self):
        with pytest.raises(AverEvalError):
            scaling_exponent(np.array([1.0, -2.0]), np.array([1.0, 2.0]))

    @given(
        b=st.floats(min_value=-2, max_value=3),
        c=st.floats(min_value=0.1, max_value=100),
    )
    def test_recovers_exponent(self, b, c):
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        y = c * x**b
        assert scaling_exponent(x, y) == pytest.approx(b, abs=1e-9)


class TestListing3:
    def test_paper_assertion_passes(self, gassyfs_table):
        result = check(
            "when workload=* and machine=* expect sublinear(nodes,time)",
            gassyfs_table,
        )
        assert result.passed
        assert len(result.groups) == 4  # 2 workloads x 2 machines

    def test_fails_on_linear_growth(self):
        table = MetricsTable(["machine", "nodes", "time"])
        for nodes in (1, 2, 4, 8):
            table.append({"machine": "m", "nodes": nodes, "time": 10.0 * nodes})
        result = check("when machine=* expect sublinear(nodes,time)", table)
        assert not result.passed

    def test_group_bindings_reported(self, gassyfs_table):
        result = check(
            "when workload=* and machine=* expect sublinear(nodes,time)",
            gassyfs_table,
        )
        bindings = {g.binding for g in result.groups}
        assert (("workload", "git-compile"), ("machine", "ec2")) in bindings
        assert "PASS" in result.describe()


class TestWhenSemantics:
    def test_concrete_filter(self, gassyfs_table):
        result = check(
            "when machine='cloudlab' expect max(time) <= 100", gassyfs_table
        )
        assert result.passed

    def test_filter_and_wildcard_combined(self, gassyfs_table):
        result = check(
            "when machine='ec2' and workload=* expect sublinear(nodes,time)",
            gassyfs_table,
        )
        assert result.passed
        assert len(result.groups) == 2

    def test_no_matching_rows(self, gassyfs_table):
        with pytest.raises(AverEvalError):
            check("when machine='vax' expect count() > 0", gassyfs_table)

    def test_unknown_when_column(self, gassyfs_table):
        with pytest.raises(AverEvalError):
            check("when galaxy=* expect count() > 0", gassyfs_table)

    def test_empty_table(self):
        with pytest.raises(AverEvalError):
            check("expect count() > 0", MetricsTable(["a"]))


class TestRowWiseSemantics:
    def test_universal_quantification(self):
        table = MetricsTable(["time"], [{"time": 5.0}, {"time": 9.0}])
        assert check("expect time < 10", table).passed
        assert not check("expect time < 9", table).passed

    def test_string_equality(self):
        table = MetricsTable(["status"], [{"status": "ok"}, {"status": "ok"}])
        assert check("expect status = 'ok'", table).passed
        table.append({"status": "error"})
        assert not check("expect status = 'ok'", table).passed

    def test_string_ordering_rejected(self):
        table = MetricsTable(["status"], [{"status": "ok"}])
        result = check("expect status < 'z'", table)
        assert not result.passed
        assert "non-numeric" in result.groups[0].detail

    def test_vector_vs_vector(self):
        table = MetricsTable(
            ["a", "b"], [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
        )
        assert check("expect a < b", table).passed

    def test_arithmetic_on_columns(self):
        table = MetricsTable(
            ["total", "used"], [{"total": 10, "used": 4}, {"total": 8, "used": 2}]
        )
        assert check("expect used / total <= 0.5", table).passed

    def test_unequal_length_vectors_fail_the_group(self):
        register_function("first_two", lambda name, args: args[0][:2])
        table = MetricsTable(["v"], [{"v": 1.0}, {"v": 2.0}, {"v": 3.0}])
        try:
            compared = check("expect first_two(v) < v", table)
            added = check("expect first_two(v) + v > 0", table)
        finally:
            del FUNCTIONS["first_two"]
        assert compared.groups[0].detail == (
            "comparison of unequal-length vectors (2 vs 3)"
        )
        assert added.groups[0].detail == (
            "arithmetic on unequal-length vectors (2 vs 3)"
        )

    def test_non_boolean_expectation_fails_gracefully(self):
        table = MetricsTable(["a"], [{"a": 1}])
        result = check("expect a + 1", table)
        assert not result.passed
        assert "boolean" in result.groups[0].detail


class TestFunctions:
    @pytest.fixture
    def table(self):
        return MetricsTable(
            ["x", "y"],
            [{"x": float(x), "y": float(x) * 2} for x in (1, 2, 4, 8)],
        )

    def test_aggregates(self, table):
        assert check("expect min(y) = 2 and max(y) = 16", table).passed
        assert check("expect avg(x) = 3.75 and sum(x) = 15", table).passed
        assert check("expect count() = 4 and count(x) = 4", table).passed
        assert check("expect median(x) = 3", table).passed

    def test_stddev_single_sample_zero(self):
        table = MetricsTable(["v"], [{"v": 7.0}])
        assert check("expect stddev(v) = 0", table).passed

    def test_percentile(self, table):
        assert check("expect percentile(y, 100) = 16", table).passed
        result = check("expect percentile(y, 150) > 0", table)
        assert not result.passed

    def test_linear_superlinear(self, table):
        assert check("expect linear(x, y)", table).passed
        assert not check("expect superlinear(x, y)", table).passed
        squared = MetricsTable(
            ["x", "y"], [{"x": float(x), "y": float(x) ** 2} for x in (1, 2, 4)]
        )
        assert check("expect superlinear(x, y)", squared).passed

    def test_monotonic(self):
        table = MetricsTable(
            ["n", "t"],
            [{"n": 4, "t": 2.0}, {"n": 1, "t": 8.0}, {"n": 2, "t": 4.0}],
        )
        assert check("expect monotonic_dec(n, t)", table).passed
        assert not check("expect monotonic_inc(n, t)", table).passed

    def test_constant(self):
        table = MetricsTable(["v"], [{"v": 10.0}, {"v": 10.2}, {"v": 9.9}])
        assert check("expect constant(v)", table).passed
        assert not check("expect constant(v, 0.001)", table).passed

    def test_within(self):
        table = MetricsTable(["v"], [{"v": 3.0}, {"v": 4.5}])
        assert check("expect within(v, 0, 5)", table).passed
        assert not check("expect within(v, 0, 4)", table).passed

    def test_within_bad_range(self):
        table = MetricsTable(["v"], [{"v": 3.0}])
        result = check("expect within(v, 5, 0)", table)
        assert not result.passed

    def test_unknown_function(self, table):
        result = check("expect holographic(x)", table)
        assert not result.passed
        assert "unknown function" in result.groups[0].detail

    def test_unknown_column(self, table):
        result = check("expect avg(ghost) > 0", table)
        assert not result.passed
        assert "no column" in result.groups[0].detail

    def test_register_custom_function(self, table):
        def always(name, args):
            return True

        register_function("always_holds", always)
        try:
            assert check("expect always_holds()", table).passed
        finally:
            del FUNCTIONS["always_holds"]

    def test_registered_function_may_return_a_numpy_bool(self, table):
        register_function("numpy_holds", lambda name, args: np.bool_(True))
        try:
            assert check("expect numpy_holds()", table).passed
            assert check("expect numpy_holds() and count() = 4", table).passed
        finally:
            del FUNCTIONS["numpy_holds"]

    def test_register_duplicate_rejected(self):
        with pytest.raises(AverEvalError):
            register_function("avg", lambda n, a: 0)

    @pytest.mark.parametrize(
        "source, detail",
        [
            ("expect avg(machine) > 1", "avg(): argument 0 is not numeric"),
            (
                "expect sublinear(machine, time)",
                "sublinear(): argument 0 is not numeric",
            ),
            (
                "expect percentile(time, machine) > 0",
                "percentile(): argument 1 is not numeric",
            ),
            ("expect within(time, 'lo', 9)", "within(): argument 1 is not numeric"),
        ],
    )
    def test_string_argument_fails_the_group(self, source, detail):
        table = MetricsTable(
            ["machine", "time"],
            [{"machine": "cpu", "time": 2.0}, {"machine": "mem", "time": 1.0}],
        )
        result = check(source, table)
        assert not result.passed
        assert result.groups[0].detail == detail


class TestLogicAndCheckAll:
    def test_and_or_not(self):
        table = MetricsTable(["v"], [{"v": 5.0}])
        assert check("expect v > 0 and v < 10", table).passed
        assert check("expect v > 100 or v < 10", table).passed
        assert check("expect not v > 100", table).passed

    def test_non_boolean_logic_operand(self):
        table = MetricsTable(["v"], [{"v": 5.0}])
        result = check("expect v and v < 10", table)
        assert not result.passed

    def test_check_all_from_file_text(self, tmp_path):
        table = MetricsTable(
            ["machine", "nodes", "time"],
            [
                {"machine": "m", "nodes": n, "time": 100 / n**0.5}
                for n in (1, 2, 4, 8)
            ],
        )
        text = (
            "expect count() = 4\n"
            "when machine=* expect sublinear(nodes, time)\n"
            "expect within(time, 0, 200)\n"
        )
        results = check_all(text, table)
        assert len(results) == 3
        assert all(r.passed for r in results)

    def test_division_by_zero_detail(self):
        table = MetricsTable(["v"], [{"v": 1.0}])
        result = check("expect v / 0 < 10", table)
        assert not result.passed


class TestScalingExpFunction:
    def test_bounds_exponent_directly(self):
        table = MetricsTable(
            ["nodes", "time"],
            [{"nodes": n, "time": 100 / n**0.8} for n in (1, 2, 4, 8)],
        )
        assert check("expect scaling_exp(nodes, time) < -0.5", table).passed
        assert check("expect scaling_exp(nodes, time) > -1", table).passed
        assert not check("expect scaling_exp(nodes, time) > 0", table).passed

    def test_arity(self):
        table = MetricsTable(["x"], [{"x": 1}])
        result = check("expect scaling_exp(x) < 1", table)
        assert not result.passed

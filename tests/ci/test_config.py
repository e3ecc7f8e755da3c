"""Tests for CI configuration parsing and matrix expansion."""

import pytest

from repro.common.errors import CIError
from repro.ci.config import CIConfig, parse_env_line


class TestParseEnvLine:
    def test_multiple(self):
        assert parse_env_line("A=1 B=two") == {"A": "1", "B": "two"}

    def test_empty_value(self):
        assert parse_env_line("A=") == {"A": ""}

    def test_missing_equals(self):
        with pytest.raises(CIError):
            parse_env_line("JUSTAKEY")

    def test_quoted_value_keeps_its_spaces(self):
        assert parse_env_line('A="x y" B=1') == {"A": "x y", "B": "1"}

    def test_unbalanced_quote_is_a_ci_error(self):
        with pytest.raises(CIError):
            parse_env_line('A="x')


class TestCIConfig:
    def test_minimal(self):
        config = CIConfig.from_yaml("script: make test\n")
        assert config.script == ["make test"]
        assert config.expand_matrix() == [{}]

    def test_full(self):
        config = CIConfig.from_yaml(
            "language: python\n"
            "env:\n"
            "  global:\n"
            "    - MODE=ci\n"
            "  matrix:\n"
            "    - NODES=1\n"
            "    - NODES=2\n"
            "install:\n"
            "  - pkg install make\n"
            "before_script:\n"
            "  - echo before\n"
            "script:\n"
            "  - make test\n"
            "after_script:\n"
            "  - echo done\n"
        )
        jobs = config.expand_matrix()
        assert jobs == [
            {"MODE": "ci", "NODES": "1"},
            {"MODE": "ci", "NODES": "2"},
        ]

    def test_flat_env_list_is_matrix(self):
        config = CIConfig.from_yaml("env:\n  - A=1\n  - A=2\nscript: [t]\n")
        assert len(config.expand_matrix()) == 2

    def test_include_adds_job(self):
        config = CIConfig.from_yaml(
            "env: [A=1]\nmatrix:\n  include:\n    - env: A=9 EXTRA=1\nscript: [t]\n"
        )
        jobs = config.expand_matrix()
        assert {"A": "9", "EXTRA": "1"} in jobs

    def test_exclude_removes_job(self):
        config = CIConfig.from_yaml(
            "env: [A=1, A=2]\nmatrix:\n  exclude:\n    - env: A=2\nscript: [t]\n"
        )
        assert config.expand_matrix() == [{"A": "1"}]

    def test_excluding_everything_rejected(self):
        config = CIConfig.from_yaml(
            "env: [A=1]\nmatrix:\n  exclude:\n    - env: A=1\nscript: [t]\n"
        )
        with pytest.raises(CIError):
            config.expand_matrix()

    def test_script_required(self):
        with pytest.raises(CIError, match="script"):
            CIConfig.from_yaml("language: python\n")

    def test_empty_config_rejected(self):
        with pytest.raises(CIError):
            CIConfig.from_yaml("")

    def test_unknown_keys_rejected(self):
        with pytest.raises(CIError, match="unknown"):
            CIConfig.from_yaml("script: [t]\nsudo: required\n")

    def test_single_string_script(self):
        config = CIConfig.from_yaml("script: single command\n")
        assert config.script == ["single command"]

"""The end-to-end benchmark's layer table names functions that exist.

``benchmarks/e2e/layers.py`` wraps each function its ``LAYERS`` table
names once the function's module has executed, so a renamed or deleted
function crashes every traced run of a module that still exists.  This
loads the table by path, without installing the tracer, and resolves
every entry whose module is part of the package.  An entry whose module
is gone is never imported by a traced run, and so never wrapped.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _load_layers():
    path = ROOT / "benchmarks" / "e2e" / "layers.py"
    spec = importlib.util.spec_from_file_location("e2e_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def _exists(module):
    base = SRC.joinpath(*module.split("."))
    return base.with_suffix(".py").is_file() or (base / "__init__.py").is_file()


ENTRIES = [
    (layer, module, path)
    for layer, entries in _load_layers().items()
    for module, path, _op_of, _extra in entries
    if _exists(module)
]


def test_the_table_names_package_modules():
    # An empty table would leave the check below with nothing to run.
    assert ENTRIES


@pytest.mark.parametrize(
    "layer, module, path",
    ENTRIES,
    ids=[f"{layer}:{module}.{path}" for layer, module, path in ENTRIES],
)
def test_each_wrapped_function_resolves(layer, module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)

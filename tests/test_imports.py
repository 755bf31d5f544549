"""Every module imports first: no import cycle hides behind ``__init__.py``."""

import subprocess
import sys

import pytest

import neighborly

MODULES = [
    "core",
    "bounds",
    "reference",
    "constructions",
    "analysis",
    "cli",
    "search",
    "search.graph",
    "search.solver",
    "search._kernel",
]


@pytest.mark.parametrize("module", MODULES)
def test_imports_first_under_a_bare_package(module):
    # a bare package object skips neighborly/__init__.py, whose import order
    # would otherwise load a cycle's other half first
    code = "\n".join([
        "import importlib, sys, types",
        "package = types.ModuleType('neighborly')",
        f"package.__path__ = {list(neighborly.__path__)!r}",
        "sys.modules['neighborly'] = package",
        f"importlib.import_module('neighborly.{module}')",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr

"""Every module imports first: no import cycle hides behind ``__init__.py``."""

import os
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
    "search._kernel_py",
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


def test_pure_kernel_imports_nothing_from_the_package():
    # bare objects for both packages, so that only the module's own imports
    # can load another part of neighborly
    packages = {"neighborly": list(neighborly.__path__),
                "neighborly.search": [os.path.join(p, "search") for p in neighborly.__path__]}
    code = "\n".join([
        "import importlib, sys, types",
        f"for name, path in {packages!r}.items():",
        "    sys.modules[name] = types.ModuleType(name)",
        "    sys.modules[name].__path__ = path",
        "importlib.import_module('neighborly.search._kernel_py')",
        "print(sorted(name for name in sys.modules if name.startswith('neighborly')))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{sorted([*packages, 'neighborly.search._kernel_py'])}\n"

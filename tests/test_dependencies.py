"""numpy stays the only runtime dependency.

Every module under ``src/rqspeech`` is parsed with ``ast``; each of its
imports must name the standard library, numpy or the package itself.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rqspeech"
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "rqspeech"}
MODULES = sorted(PACKAGE.rglob("*.py"))


def foreign_imports(source: str) -> list[str]:
    """``line: name`` of each import whose top-level package is not allowed;
    a relative import is the package itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names
                  if name.partition(".")[0] not in ALLOWED]
    return found


def test_package_has_modules():
    assert PACKAGE / "__init__.py" in MODULES and len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_numpy(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_foreign_imports_are_found():
    source = ("import os, scipy.signal\nfrom numpy.lib import stride_tricks\n"
              "from . import autodiff\ndef f():\n    from torch import nn\n")
    assert foreign_imports(source) == ["1: scipy.signal", "5: torch"]

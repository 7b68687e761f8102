"""numpy stays the only runtime dependency, and private names stay in
their modules.

Every module under ``src/rqspeech`` is parsed with ``ast``; each of its
imports must name the standard library, numpy or the package itself, and it
reads no other module's underscore name.
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


def private_reads(source: str) -> set[tuple[str, str]]:
    """(module, name) of each underscore name that ``source`` reads from a
    module of the package, by ``from .module import _name`` or as
    ``alias._name`` of a module it imported."""
    tree = ast.parse(source)
    modules, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "rqspeech"):
            for alias in node.names:
                if node.module in (None, "rqspeech"):
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.add((node.module.rpartition(".")[2], alias.name))
        elif isinstance(node, ast.Import):
            modules.update((alias.asname, alias.name.rpartition(".")[2]) for alias in node.names
                           if alias.asname and alias.name.startswith("rqspeech."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.add((modules[node.value.id], node.attr))
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


def test_no_private_name_crosses_modules():
    found = {(path.stem, module, name) for path in MODULES
             for module, name in private_reads(path.read_text(encoding="utf-8"))}
    assert found == set()


def test_private_reads_are_found():
    source = ("from . import autodiff as ad, parallel\n"
              "from .records import _read_array, write_checkpoint\n"
              "import rqspeech.encoder as enc\nimport os\n"
              "x = ad._make(1) + parallel.cores() + enc._block_params + os._exit\n")
    assert private_reads(source) == {("records", "_read_array"), ("autodiff", "_make"),
                                     ("encoder", "_block_params")}

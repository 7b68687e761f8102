"""The command line has one exit path.

``src/rqspeech/cli.py`` is parsed with ``ast``. Only ``main`` and ``_warn``
may name ``sys.stderr``, so every ``error:`` line comes from ``main``; each
``cmd_*`` function may return only the constant 0, so a failing command can
only raise ``CommandError``, whose code ``main`` returns.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "rqspeech" / "cli.py"
STDERR_WRITERS = frozenset({"main", "_warn"})


def _top_level(source: str):
    """(name, node) of each top-level statement; a function or class by its name."""
    for node in ast.parse(source).body:
        yield getattr(node, "name", "<module>"), node


def stderr_outside_writers(source: str) -> list[str]:
    """``line: owner`` of each mention of ``sys.stderr`` or ``stderr`` outside
    the functions allowed to write to it."""
    found = []
    for owner, node in _top_level(source):
        if owner in STDERR_WRITERS:
            continue
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Attribute) and sub.attr == "stderr"
                    or isinstance(sub, ast.Name) and sub.id == "stderr"
                    or isinstance(sub, ast.alias) and sub.name == "stderr"):
                found.append(f"{sub.lineno}: {owner}")
    return found


def non_zero_returns(source: str) -> list[str]:
    """``line: command`` of each ``return`` in a ``cmd_*`` function whose
    value is not the constant 0."""
    found = []
    for owner, node in _top_level(source):
        if not owner.startswith("cmd_"):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Return) and not (
                    isinstance(sub.value, ast.Constant) and type(sub.value.value) is int
                    and sub.value.value == 0):
                found.append(f"{sub.lineno}: {owner}")
    return found


def test_cli_has_its_commands():
    names = [owner for owner, _ in _top_level(CLI.read_text(encoding="utf-8"))]
    assert {"main", "_warn"} <= set(names)
    assert sum(name.startswith("cmd_") for name in names) == 6


def test_only_main_and_warn_write_to_stderr():
    assert stderr_outside_writers(CLI.read_text(encoding="utf-8")) == []


def test_commands_return_only_zero():
    assert non_zero_returns(CLI.read_text(encoding="utf-8")) == []


def test_violations_are_found():
    source = ("import sys\nfrom sys import stderr\n"
              "def cmd_a(args):\n    if args:\n        return 2\n    return 0\n"
              "def cmd_b(args):\n    print('x', file=sys.stderr)\n    return code\n"
              "def cmd_c(args):\n    return False\n"
              "def main():\n    print('error', file=sys.stderr)\n    return 1\n")
    assert stderr_outside_writers(source) == ["2: <module>", "8: cmd_b"]
    assert non_zero_returns(source) == ["5: cmd_a", "9: cmd_b", "11: cmd_c"]

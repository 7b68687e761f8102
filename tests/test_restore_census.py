"""Each restore states once what it reads, and the reader alone checks it.

Every module of ``src/rqspeech`` is parsed with ``ast``. Adam's moments are
stored as ``opt.m.<name>`` and ``opt.v.<name>``, and only ``pretrain.py``
spells a tensor name that starts ``opt.``, as a string constant or as the
head of an f-string; every other module asks ``pretrain`` for the names. A
restore names the tensors it takes, with their shapes, to
``records.read_checkpoint``, and only the reader, ``records._read_records``,
raises the missing-tensor and shape-mismatch errors.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rqspeech"
MOMENT_OWNER = "pretrain.py"
READER = ("records.py", "_read_records")
RESTORE_ERRORS = ("checkpoint missing tensor ", "shape mismatch for tensor ")


def _head(node) -> str | None:
    """The literal text a string constant or an f-string starts with."""
    if isinstance(node, ast.JoinedStr):
        node = node.values[0] if node.values else None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _strings(tree):
    """Each string constant and f-string of ``tree``, the constant pieces of
    an f-string not counted apart from it."""
    pieces = {id(piece) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
              for piece in node.values}
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Constant, ast.JoinedStr)) and id(node) not in pieces]


def moment_names(module: str, source: str) -> list[str]:
    """``module:line`` of each string spelling an ``opt.``-prefixed name
    outside ``pretrain.py``."""
    if module == MOMENT_OWNER:
        return []
    return [f"{module}:{line}" for line in sorted(
        node.lineno for node in _strings(ast.parse(source))
        if (_head(node) or "").startswith("opt."))]


def restore_errors(module: str, source: str) -> list[str]:
    """``module:line: function`` of each ``raise`` of a missing-tensor or
    shape-mismatch message outside the reader."""
    found = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", "<module>")
        if (module, owner) == READER:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Raise) and sub.exc is not None and any(
                    (_head(s) or "").startswith(RESTORE_ERRORS) for s in _strings(sub.exc)):
                found.append(f"{module}:{sub.lineno}: {owner}")
    return found


def test_pretrain_alone_spells_moment_names():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in moment_names(path.name, path.read_text(encoding="utf-8"))]
    assert found == []


def test_reader_alone_raises_restore_errors():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in restore_errors(path.name, path.read_text(encoding="utf-8"))]
    assert found == []


def test_reader_raises_both():
    source = (SRC / READER[0]).read_text(encoding="utf-8")
    reader, = (node for node in ast.parse(source).body
               if getattr(node, "name", None) == READER[1])
    heads = {_head(s) for sub in ast.walk(reader) if isinstance(sub, ast.Raise)
             for s in _strings(sub.exc)}
    assert all(any((h or "").startswith(error) for h in heads) for error in RESTORE_ERRORS)


def test_violations_are_found():
    source = ('"""opt.m. in a docstring is a constant too."""\n'
              "def load(h, p):\n"
              "    keep = [n for n in h if not n.startswith('opt.')]\n"
              "    m = f'opt.v.{n}'\n"
              "    note = f'{n} is no opt.m. head'\n"
              "    raise CheckpointError(f'checkpoint missing tensor {n}: {p}')\n"
              "def _read_records(f, path):\n"
              "    raise CheckpointError(f'shape mismatch for tensor {n}: checkpoint')\n")
    assert moment_names("cli.py", source) == ["cli.py:1", "cli.py:3", "cli.py:4"]
    assert moment_names("pretrain.py", source) == []
    assert restore_errors("finetune.py", source) == ["finetune.py:6: load",
                                                     "finetune.py:8: _read_records"]
    assert restore_errors("records.py", source) == ["records.py:6: load"]

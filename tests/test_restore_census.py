"""Each restore states once what it reads, and the reader alone checks it.

Every module of ``src/rqspeech`` is parsed with ``ast``. Adam's moments are
stored as ``opt.m.<name>`` and ``opt.v.<name>``, and only ``pretrain.py``
spells a tensor name that starts ``opt.``, as a string constant or as the
head of an f-string; every other module asks ``pretrain`` for the names. A
restore names the tensors it takes, with their shapes, to
``records.read_checkpoint``, and only the reader, ``records._read_records``,
raises the missing-tensor and shape-mismatch errors. Every restore judges the
header in the ``want`` it passes the reader, a lambda in the call or a function
its module defines: a function that calls ``read_checkpoint`` raises
``CheckpointError`` only inside that ``want``, so it refuses before any tensor
is read.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rqspeech"
MOMENT_OWNER = "pretrain.py"
READER = ("records.py", "_read_records")
RESTORE_ERRORS = ("checkpoint missing tensor ", "shape mismatch for tensor ")
RESTORE = "read_checkpoint"


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


def _names(node, name: str) -> bool:
    """``node`` is the name ``name`` or an attribute ``<x>.name``."""
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def _functions(tree):
    """Each function of a module and each method of its classes."""
    for node in tree.body:
        yield from (unit for unit in (node.body if isinstance(node, ast.ClassDef) else [node])
                    if isinstance(unit, ast.FunctionDef))


def unjudged_restores(module: str, source: str) -> list[str]:
    """``module:line: function ...`` of each ``read_checkpoint`` call without a
    ``want``, and of each ``raise`` of a ``CheckpointError`` in a function that
    calls it, outside the ``want`` it passes."""
    tree = ast.parse(source)
    found = []
    for func in _functions(tree):
        calls = [node for node in ast.walk(func)
                 if isinstance(node, ast.Call) and _names(node.func, RESTORE)]
        judging = set()  # the nodes of each want
        for call in calls:
            want = next(iter(call.args[1:2] + [k.value for k in call.keywords if k.arg == "want"]),
                        None)
            if isinstance(want, ast.Name):  # a function of the caller's, else of the module's
                want = next((node for node in [*ast.walk(func), *tree.body]
                             if isinstance(node, ast.FunctionDef) and node.name == want.id), None)
            if isinstance(want, (ast.Lambda, ast.FunctionDef)):
                judging.update(ast.walk(want))
            else:
                found.append(f"{module}:{call.lineno}: {func.name} reads without a want")
        found += [f"{module}:{node.lineno}: {func.name} raises outside its want"
                  for node in ast.walk(func) if calls and isinstance(node, ast.Raise)
                  and node not in judging and node.exc is not None
                  and any(_names(sub, "CheckpointError") for sub in ast.walk(node.exc))]
    return found


def test_pretrain_alone_spells_moment_names():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in moment_names(path.name, path.read_text(encoding="utf-8"))]
    assert found == []


def test_reader_alone_raises_restore_errors():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in restore_errors(path.name, path.read_text(encoding="utf-8"))]
    assert found == []


def test_every_restore_judges_in_its_want():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in unjudged_restores(path.name, path.read_text(encoding="utf-8"))]
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

    source = ("def _judge(header):\n"
              "    raise records.CheckpointError('judged')\n"
              "def unjudged(path):\n"
              "    header, _ = read_checkpoint(path)\n"
              "    records.read_checkpoint(path, want=None)\n"
              "    read_checkpoint(path, shapes)\n"
              "def late(path):\n"
              "    def want(header):\n"
              "        raise CheckpointError('judged')\n"
              "    header, _ = records.read_checkpoint(path, want)\n"
              "    if header['step']:\n"
              "        raise CheckpointError('too late')\n"
              "    raise ValueError('not a checkpoint error')\n"
              "class Loader:\n"
              "    def load(self, path):\n"
              "        read_checkpoint(path, lambda h: h.get('x') or self.fail())\n"
              "        read_checkpoint(path, _judge)\n"
              "        raise CheckpointError('after')\n"
              "def judged(path):\n"
              "    read_checkpoint(path, want=_judge)\n"
              "    read_checkpoint(path, lambda header: {})\n")
    assert unjudged_restores("m.py", source) == [
        "m.py:4: unjudged reads without a want", "m.py:5: unjudged reads without a want",
        "m.py:6: unjudged reads without a want", "m.py:12: late raises outside its want",
        "m.py:18: load raises outside its want"]

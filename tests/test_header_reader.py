"""The checkpoint header's shared fields are read in one place.

Every module of ``src/rqspeech`` is parsed with ``ast``. ``header_value`` may
be called with the key ``"step"`` or ``"encoder_config"`` only inside the
checkpoint reader, ``records._read_records``, which checks both; every
loader and ``inspect`` then reads the checked values from the header it
returns.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rqspeech"
SHARED_KEYS = frozenset({"step", "encoder_config"})
READER = ("records.py", "_read_records")


def shared_key_reads(module: str, source: str) -> list[str]:
    """``module:line: function`` of each ``header_value`` call that names a
    shared key outside the reader."""
    found = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", "<module>")
        if (module, owner) == READER:
            continue
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            callee = getattr(sub.func, "attr", getattr(sub.func, "id", None))
            if callee == "header_value" and any(
                    isinstance(arg, ast.Constant) and arg.value in SHARED_KEYS
                    for arg in [*sub.args, *(kw.value for kw in sub.keywords)]):
                found.append(f"{module}:{sub.lineno}: {owner}")
    return found


def test_reader_alone_reads_step_and_encoder_config():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in shared_key_reads(path.name, path.read_text(encoding="utf-8"))]
    assert found == []


def test_reader_reads_both():
    source = (SRC / READER[0]).read_text(encoding="utf-8")
    reader, = (node for node in ast.parse(source).body
               if getattr(node, "name", None) == READER[1])
    keys = {arg.value for sub in ast.walk(reader) if isinstance(sub, ast.Call)
            for arg in sub.args if isinstance(arg, ast.Constant)}
    assert SHARED_KEYS <= keys


def test_violations_are_found():
    source = ("def _read_records(f):\n    return header_value(h, 'step', p)\n"
              "def load(h, p):\n    return records.header_value(h, 'step', p, int)\n"
              "def build(h, p):\n    cfg = header_value(h, key='encoder_config', path=p)\n"
              "    return header_value(h, 'alphabet', p)\n")
    assert shared_key_reads("records.py", source) == ["records.py:4: load",
                                                      "records.py:6: build"]
    assert shared_key_reads("finetune.py", source) == ["finetune.py:2: _read_records",
                                                       "finetune.py:4: load",
                                                       "finetune.py:6: build"]

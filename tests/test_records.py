"""The run's records: their header bounds, and ``records.py`` as their one owner.

The reader tests pin the 64-bit bound on a checkpoint's ``step`` and the
bounded read of a label cache's header. The layering tests parse every
module of ``src/rqspeech`` with ``ast``: only ``records.py`` calls
``os.replace``, holds a format's magic or names a ``.lab`` file, and
``label_cache_path`` keeps every label file inside its directory; only it
and ``frontend.py`` (whose
WAV headers are the corpus's format, not a record of the run) import
``struct``, and ``records.py`` imports only the standard library, numpy and
``.encoder``.
"""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from rqspeech import encoder as enc
from rqspeech import records

SRC = Path(__file__).resolve().parent.parent / "src" / "rqspeech"
OWNER = "records.py"
STRUCT_USERS = {OWNER, "frontend.py"}
MAGICS = (records.CHECKPOINT_MAGIC, records.LABEL_CACHE_MAGIC)
TINY_ENC = enc.EncoderConfig(num_layers=1, hidden=16, ffn=32, heads=2)


# readers ------------------------------------------------------------------------

@pytest.mark.parametrize("step", [0, 2**63 - 1])
def test_step_below_64_bits_loads(tmp_path, step):
    path = tmp_path / "s.msec"
    records.write_checkpoint(path, step, TINY_ENC, {"a": np.ones(4, np.float32)}, {})
    header, tensors = records.read_checkpoint(path)
    assert header["step"] == step
    assert np.array_equal(tensors["a"], np.ones(4, np.float32))


def test_step_of_2_to_the_63_refused(tmp_path):
    path = tmp_path / "s.msec"
    records.write_checkpoint(path, 2**63, TINY_ENC, {"a": np.ones(4, np.float32)}, {})
    with pytest.raises(records.CheckpointError) as err:
        records.read_checkpoint(path, keep=lambda name: False)
    assert str(err.value) == f"corrupt checkpoint: {path} (bad step {2**63})"


class Counted:
    """A file that records the size each ``read`` and ``readline`` asks for."""

    def __init__(self, f, asked):
        self._f = f
        self._asked = asked

    def read(self, size=-1):
        self._asked.append(size)
        return self._f.read(size)

    def readline(self, size=-1):
        self._asked.append(size)
        return self._f.readline(size)

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


@pytest.fixture
def asked(monkeypatch):
    """The sizes every file that ``records`` opens is asked to read."""
    sizes = []
    monkeypatch.setattr(records, "open", lambda *a, **k: Counted(open(*a, **k), sizes),
                        raising=False)
    return sizes


@pytest.mark.parametrize("utt_id, name", [("u", "u.lab"), ("spk1/utt1", "spk1/utt1.lab"),
                                          ("a..b", "a..b.lab"), ("...", "....lab")])
def test_label_cache_path_inside_its_directory(tmp_path, utt_id, name):
    assert records.label_cache_path(tmp_path, utt_id) == tmp_path / name


@pytest.mark.parametrize("utt_id", ["../x", "a/../../x", "..", "a/..", "/x"])
def test_label_cache_path_outside_its_directory_refused(tmp_path, utt_id):
    with pytest.raises(ValueError, match=f"^utterance id {utt_id!r} names a label file "
                                         f"outside {tmp_path}$"):
        records.label_cache_path(tmp_path, utt_id)


@pytest.mark.parametrize("utt_id, path", [("a//b", "a/b"), ("./a", "a"), ("a/./b", "a/b"),
                                          ("a/", "a"), ("", ".")])
def test_label_cache_path_of_a_respelled_id_refused(tmp_path, utt_id, path):
    # each would share its label file with the id spelled as ``path``
    with pytest.raises(ValueError, match=f"^utterance id {utt_id!r} is not spelled as the "
                                         f"path {path!r} that names its label file "
                                         f"in {tmp_path}$"):
        records.label_cache_path(tmp_path, utt_id)


def test_label_cache_header_read_is_bounded(tmp_path, asked):
    path = tmp_path / "u.lab"
    records.write_label_cache(path, np.arange(6).reshape(3, 2), 8)
    assert np.array_equal(records.read_label_cache(path), np.arange(6).reshape(3, 2))
    # a megabyte without a newline is refused after one bounded read
    path.write_bytes(b"MSEQ1 " + b"1" * (1 << 20))
    with pytest.raises(records.LabelCacheError, match=f"^not a label cache file: {path}$"):
        records.read_label_cache(path)
    assert asked == [records.LABEL_CACHE_HEADER_MAX] * 2
    assert records.LABEL_CACHE_HEADER_MAX < 80


def test_longest_label_cache_header_fits_the_bound(tmp_path):
    path = tmp_path / "u.lab"
    path.write_bytes(f"MSEQ1 {2**63 - 1} {2**63 - 1} {records.LABEL_CACHE_MAX_VOCAB}\n"
                     .encode("ascii"))
    assert path.stat().st_size == records.LABEL_CACHE_HEADER_MAX
    with pytest.raises(records.LabelCacheError, match=f"^label cache truncated: {path}$"):
        records.read_label_cache(path)


# layering -------------------------------------------------------------------------

def record_code(module: str, source: str) -> list[str]:
    """``module:line: what`` of each piece of record-format code in ``source``
    that ``module`` may not hold."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            uses = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            uses = [node.module] if not node.level else []
        else:
            uses = []
        if "struct" in uses and module not in STRUCT_USERS:
            found.append(f"{module}:{node.lineno}: imports struct")
        if module == OWNER:
            continue
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "replace" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "os"):
            found.append(f"{module}:{node.lineno}: calls os.replace")
        if isinstance(node, ast.Constant) and any(
                type(node.value) is type(magic) and node.value.startswith(magic)
                for magic in MAGICS):
            found.append(f"{module}:{node.lineno}: holds {node.value!r}")
        if isinstance(node, ast.Constant) and type(node.value) is str and node.value.endswith(
                ".lab"):
            found.append(f"{module}:{node.lineno}: names a label file {node.value!r}")
    return found


def foreign_imports(source: str) -> list[str]:
    """Each import of ``source`` from outside the standard library, numpy and
    the package's ``encoder``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            names = ["." + (node.module or alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            continue
        found += [name for name in names
                  if name != ".encoder" and name.split(".")[0] not in
                  {"numpy", *sys.stdlib_module_names}]
    return found


def test_records_alone_hold_the_formats():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in record_code(path.name, path.read_text(encoding="utf-8"))]
    assert found == []


def test_records_import_only_stdlib_numpy_and_encoder():
    assert foreign_imports((SRC / OWNER).read_text(encoding="utf-8")) == []


def test_violations_are_found():
    source = ("import os, struct\n"
              "from . import encoder, pretrain\n"
              "from .quantizer import STACK_WINDOW\n"
              "import csv, numpy as np\n"
              "def save(path, l):\n"
              "    os.replace(path + '.tmp', path.replace('a', 'b'))\n"
              "    return b'MSEC' + f'MSEQ1 {l}'.encode()\n")
    assert record_code("cli.py", source) == ["cli.py:1: imports struct",
                                             "cli.py:6: calls os.replace",
                                             "cli.py:7: holds b'MSEC'",
                                             "cli.py:7: holds 'MSEQ1 '"]
    assert record_code("frontend.py", source)[0] == "frontend.py:6: calls os.replace"
    assert record_code(OWNER, source) == []
    assert foreign_imports(source) == [".pretrain", ".quantizer"]


def test_label_file_names_are_found():
    source = "path = cache / (utt_id + '.lab')\nhelp = 'one .lab file per id'\n"
    assert record_code("cli.py", source) == ["cli.py:1: names a label file '.lab'"]
    assert record_code(OWNER, source) == []

"""``parallel.py`` as the one owner of the process's threads.

The layering tests parse every module of ``src/rqspeech`` with ``ast``: only
``parallel.py`` imports ``concurrent.futures``, ``ctypes`` or ``threading``,
calls ``os.sched_getaffinity`` or ``os.cpu_count``, or constructs a
``ThreadPoolExecutor``, so no other module starts a thread, counts the cores
or touches OpenBLAS. The OpenBLAS fallbacks run with the lookups substituted,
and start no thread.
"""

import ast
from pathlib import Path

from rqspeech import parallel

SRC = Path(__file__).resolve().parent.parent / "src" / "rqspeech"
OWNER = "parallel.py"
THREAD_MODULES = {"concurrent.futures", "ctypes", "threading"}
THREAD_CALLS = {"sched_getaffinity", "cpu_count", "ThreadPoolExecutor"}


def thread_code(module: str, source: str) -> list[str]:
    """``module:line: what`` of each piece of thread code in ``source`` that
    ``module`` may not hold."""
    if module == OWNER:
        return []
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            uses = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            uses = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            uses = []
        found += [f"{module}:{node.lineno}: imports {name}"
                  for name in uses if name in THREAD_MODULES]
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in THREAD_CALLS:
                found.append(f"{module}:{node.lineno}: calls {name}")
    return found


def test_parallel_alone_holds_the_threads():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in thread_code(path.name, path.read_text(encoding="utf-8"))]
    assert found == []


def test_violations_are_found():
    source = ("import ctypes, os, queue\n"
              "from concurrent import futures\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "from threading import Thread\n"
              "cores = len(os.sched_getaffinity(0))\n"
              "cores = os.cpu_count()\n"
              "pool = futures.ThreadPoolExecutor(cores)\n"
              "pool = ThreadPoolExecutor(cores)\n")
    assert sorted(thread_code("datapipe.py", source)) == [
        "datapipe.py:1: imports ctypes",
        "datapipe.py:2: imports concurrent.futures",
        "datapipe.py:3: imports concurrent.futures",
        "datapipe.py:4: imports threading",
        "datapipe.py:5: calls sched_getaffinity",
        "datapipe.py:6: calls cpu_count",
        "datapipe.py:7: calls ThreadPoolExecutor",
        "datapipe.py:8: calls ThreadPoolExecutor"]
    assert thread_code(OWNER, source) == []


def test_blas_hold_without_openblas_holds_nothing(monkeypatch):
    monkeypatch.setattr(parallel, "openblas_threads", lambda: None)
    with parallel.one_blas_thread():
        assert parallel.blas_thread_count() is None


def test_openblas_library_that_does_not_load_is_none(monkeypatch, tmp_path):
    junk = tmp_path / "libscipy_openblas64_-junk.so"
    junk.write_bytes(b"not a shared library")
    monkeypatch.setattr(parallel.glob, "glob", lambda pattern: [str(junk)])
    assert parallel.openblas_library.__wrapped__() is None

"""``parallel.py`` as the one owner of the process's threads.

The layering tests parse every module of ``src/rqspeech`` with ``ast``: only
``parallel.py`` imports ``concurrent.futures``, ``ctypes`` or ``threading``,
calls ``os.sched_getaffinity`` or ``os.cpu_count``, or constructs a
``ThreadPoolExecutor``, so no other module starts a thread, counts the cores
or touches OpenBLAS. The OpenBLAS fallbacks run with the lookups substituted,
and start no thread.

The process runs OpenBLAS at one thread once the first pool map or CLI
command has set it (``hold_one_blas_thread``), whatever count it started
at. What decode and quantize compute does not depend on that count: the
frontend, the quantizer's labels and a small unsplit encoder step give the
same bytes at two BLAS threads and at one. A larger unsplit training batch
does not; ``tests/test_cli.py`` checks that pretraining writes the same
bytes whatever count the process started at.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from rqspeech import autodiff as ad
from rqspeech import encoder, frontend, parallel, quantizer

from conftest import blas_threads, make_speechlike

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


needs_two_blas_threads = pytest.mark.skipif(
    parallel.openblas_threads() is None or parallel.cores() < 2,
    reason="needs numpy's OpenBLAS and two usable cores")


def pooled_blas_counts():
    """The OpenBLAS thread count each of two pool tasks reads, and the count
    after the pool has closed."""
    with parallel.pool_map(2, "blas") as (mapped, threads):
        assert threads == 2
        counts = list(mapped(lambda _: parallel.blas_thread_count(), range(2)))
    return counts, parallel.blas_thread_count()


@needs_two_blas_threads
def test_pool_tasks_run_at_one_blas_thread_and_the_count_stays():
    assert parallel.hold_one_blas_thread()
    assert pooled_blas_counts() == ([1, 1], 1)


@needs_two_blas_threads
def test_first_pool_map_sets_one_blas_thread_in_a_process_started_at_two():
    with blas_threads(2):
        parallel.hold_one_blas_thread.cache_clear()
        assert pooled_blas_counts() == ([1, 1], 1)


def test_without_openblas_nothing_is_set_and_the_pool_is_the_builtin_map(monkeypatch):
    found = parallel.blas_thread_count()
    monkeypatch.setattr(parallel, "openblas_threads", lambda: None)
    assert parallel.hold_one_blas_thread.__wrapped__() is False
    monkeypatch.setattr(parallel, "hold_one_blas_thread", parallel.hold_one_blas_thread.__wrapped__)
    with parallel.pool_map(2, "blas") as (mapped, threads):
        assert (mapped, threads) == (map, 1)
    monkeypatch.undo()
    assert parallel.blas_thread_count() == found


def at_two_and_one_blas_thread(run):
    """``run()`` at two OpenBLAS threads, then at one."""
    results = []
    for n in (2, 1):
        with blas_threads(n):
            results.append(run())
    return results


@needs_two_blas_threads
@pytest.mark.parametrize("seconds", [0.5, 5.0, 15.0])
def test_log_mel_and_labels_do_not_depend_on_blas_threads(seconds):
    w = frontend.Waveform(make_speechlike(np.random.default_rng(7), seconds), 16000)
    qs = quantizer.init_quantizer(5)

    def run():
        mel = frontend.log_mel(w)
        return mel.tobytes(), quantizer.labels_for_mel(qs, mel).tobytes()
    two, one = at_two_and_one_blas_thread(run)
    assert two == one


@needs_two_blas_threads
def test_unsplit_encoder_step_does_not_depend_on_blas_threads():
    cfg = encoder.EncoderConfig()
    rng = np.random.default_rng(9)
    mel = rng.standard_normal((4, 200, 80)).astype(np.float32)
    lengths = np.array([200, 170, 120, 90])
    # 4 x 50 label frames: below the split gate, so the batch runs whole
    assert mel.shape[0] * mel.shape[1] // encoder.FRAME_STRIDE < encoder._SPLIT_MIN_FRAMES
    arrays = encoder.init_encoder_params(cfg, 3)
    probe = rng.standard_normal((4, 50, cfg.hidden)).astype(np.float32)

    def run():
        params = encoder.params_to_tensors(arrays)
        out = encoder.encode(params, cfg, mel, lengths)
        ad.sum_(ad.mul(out.final, probe)).backward()
        return out.final.data.tobytes(), {name: t.grad.tobytes() for name, t in params.items()}
    two, one = at_two_and_one_blas_thread(run)
    assert two == one


def test_openblas_library_that_does_not_load_is_none(monkeypatch, tmp_path):
    junk = tmp_path / "libscipy_openblas64_-junk.so"
    junk.write_bytes(b"not a shared library")
    monkeypatch.setattr(parallel.glob, "glob", lambda pattern: [str(junk)])
    assert parallel.openblas_library.__wrapped__() is None

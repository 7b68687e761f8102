"""The process's threads: the usable cores, numpy's OpenBLAS thread count, the
two-thread compute pool and the batch prefetch.

``pool_map`` is the one compute pool: the head maps its codebooks over it,
and ``autodiff.batch_halves`` the encoder's two halves. ``prefetch`` is the
data loader's look-ahead. Neither starts more threads than the process has
usable cores (``cores``).

The pool is the program's only parallelism: numpy's OpenBLAS is set to one
thread for the rest of the process (``hold_one_blas_thread``) at the first
pool map and at the start of every CLI command, and is never set back, so a
training run writes the same bits on any number of cores.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import itertools
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_OPENBLAS_GET = "scipy_openblas_get_num_threads64_"
_OPENBLAS_SET = "scipy_openblas_set_num_threads64_"


def cores() -> int:
    """The number of cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@contextlib.contextmanager
def pool_map(n, name):
    """``(map, threads)`` for ``n`` independent tasks: the head's codebooks
    or the encoder's two batch halves.

    With two usable cores and numpy's OpenBLAS set to one thread, ``map`` is
    the ordered map of a two-thread pool whose threads are named after
    ``name``; otherwise it is the builtin ``map`` on one thread. Each result
    is bit-identical to a serial run at one BLAS thread while no caller sets
    the count back. A task enters through a private function, never through
    ``encoder.encode`` or ``Tensor.backward``, so a tracer that keeps one
    stack of open spans around those sees them on the calling thread only.
    The caller allocates the buffers the tasks share: buffers allocated on
    pool threads cost measurably more peak memory.
    """
    if not hold_one_blas_thread() or n < 2 or cores() < 2:
        yield map, 1
        return
    pool = ThreadPoolExecutor(2, name)
    try:
        yield pool.map, 2
    finally:
        pool.shutdown(cancel_futures=True)  # joins the threads


def prefetch(load, items, workers):
    """Yield ``load(item)`` for each of ``items`` in order, loaded ahead on
    ``min(workers, cores())`` threads with at most twice that many loads in
    flight, or in the caller at one thread. Closing the generator cancels the
    queued loads, so a caller that stops early waits for the running ones only.
    """
    threads = min(workers, cores())
    if threads <= 1:
        yield from map(load, items)
        return
    pool = ThreadPoolExecutor(threads)
    try:
        it = iter(items)
        pending = deque(pool.submit(load, item) for item in itertools.islice(it, 2 * threads))
        for item in it:
            result = pending.popleft().result()
            pending.append(pool.submit(load, item))
            yield result
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


@functools.cache
def hold_one_blas_thread() -> bool:
    """Set numpy's OpenBLAS to one thread for good; whether it could."""
    blas = openblas_threads()
    if blas is not None:
        blas[1](1)
    return blas is not None


def blas_thread_count():
    """numpy's OpenBLAS thread count, or None where it cannot be read."""
    blas = openblas_threads()
    return blas and blas[0]()


@functools.cache
def openblas_threads():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    get_threads = getattr(openblas_library(), _OPENBLAS_GET, None)
    set_threads = getattr(openblas_library(), _OPENBLAS_SET, None)
    if get_threads is None or set_threads is None:
        return None
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    return get_threads, set_threads


@functools.cache
def openblas_library():
    """numpy's bundled OpenBLAS as a loaded library, or None."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        try:
            return ctypes.CDLL(lib)
        except OSError:
            pass
    return None

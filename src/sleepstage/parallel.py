"""The worker pool that inference and training share, and OpenBLAS's thread
count while it runs.

numpy releases the GIL in BLAS and ufuncs, so work handed to a worker runs
alongside the calling thread's, each in its own core's L2. OpenBLAS is held
to one thread meanwhile, or its threads and the workers oversubscribe the
cores. Two workers is the measured case (2 cores, numpy 2.4.6, OpenBLAS
0.3.31). More are unmeasured: the ops are dispatched from Python, so they
would contend for the GIL, and each adds a working set. OpenBLAS's count is
process-wide (in 0.3.31, openblas_set_num_threads_local sets it for every
thread too), so only the calling thread sets and restores it, under _LOCK.
"""
from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Iterator

WORKERS = min(2, len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else 1
_LOCK = threading.Lock()
_POOL: ThreadPoolExecutor | None = None  # made on first use


def _forget_pool() -> None:
    global _POOL
    _POOL = None  # a forked child has none of the parent's worker threads


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@functools.cache
def openblas_thread_calls():
    """(get, set) of the loaded OpenBLAS's process-wide thread count, or None
    when no OpenBLAS with either pair of calls is mapped into this process.
    Looked up on first use, so importing the module reads no file."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1]})
        libs = [ctypes.CDLL(path, mode=os.RTLD_NOLOAD) for path in paths]
    except (OSError, AttributeError):  # no /proc, no RTLD_NOLOAD, or not loadable
        return None
    for lib in libs:
        for prefix, suffix in (("openblas_", ""), ("scipy_openblas_", "64_")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextmanager
def pool() -> Iterator[ThreadPoolExecutor]:
    """The pool of WORKERS threads, for the calling thread alone until the
    block ends. OpenBLAS, where its setter is found, runs at one thread
    inside the block, and its count is restored however the block ends."""
    global _POOL
    with _LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(WORKERS, thread_name_prefix="sleepstage-worker")
        blas = openblas_thread_calls()
        if blas is None:
            yield _POOL
            return
        get_threads, set_threads = blas
        before = get_threads()
        set_threads(1)
        try:
            yield _POOL
        finally:
            set_threads(before)

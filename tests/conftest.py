"""Shared fixtures and the acceptance summary; helpers live in helpers.py."""
from __future__ import annotations

from pathlib import Path

import pytest

from sleepstage import parallel

from helpers import ACCEPTANCE_LINES, build_corpus_recording


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def tiny_corpus(tmp_path: Path) -> Path:
    """Two-subject corpus at 10 Hz (300-sample epochs) for fast CLI runs."""
    root = tmp_path / "corpus"
    root.mkdir()
    cycle = [4, 3, 2, 1, 0]
    build_corpus_recording(root, "subjA", cycle, n_epochs=15, seed=1, rate=10)
    build_corpus_recording(root, "subjB", cycle, n_epochs=15, seed=2, rate=10,
                           sidecar_hypnogram=False)
    return root


@pytest.fixture
def worker_pool(monkeypatch):
    """worker_pool(n) makes the shared pool a fresh one of n workers, so that
    what a test counts does not depend on this machine's cores; each pool
    made is shut down."""
    made = []  # once set, parallel._POOL is None or a pool made here

    def make(n: int) -> None:
        if made and parallel._POOL is not None:
            parallel._POOL.shutdown()
        monkeypatch.setattr(parallel, "WORKERS", n)
        monkeypatch.setattr(parallel, "_POOL", None)
        made.append(n)

    yield make
    if made and parallel._POOL is not None:
        parallel._POOL.shutdown()


@pytest.fixture
def two_workers(worker_pool):
    """A fresh pool of two workers, the most parallel.WORKERS holds."""
    worker_pool(2)


@pytest.fixture
def openblas_threads(monkeypatch, two_workers):
    """(get, set) of the BLAS thread count the pool holds to one thread, on a
    pool of two workers. Where no OpenBLAS is found, a stand-in count keeps
    the pooled path under test."""
    calls = parallel.openblas_thread_calls()
    if calls is None:
        count = [1]
        calls = (lambda: count[0], lambda n: count.__setitem__(0, n))
        monkeypatch.setattr(parallel, "openblas_thread_calls", lambda: calls)
    get_threads, set_threads = calls
    before = get_threads()
    set_threads(2)  # as perfbench runs; a count left at one thread then shows
    yield get_threads, set_threads
    set_threads(before)

"""Shared fixtures and the acceptance summary; helpers live in helpers.py."""
from __future__ import annotations

from pathlib import Path

import pytest

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

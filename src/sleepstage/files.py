"""Atomic file writes, shared by the cache, the checkpoint container and
the CLI; imports nothing of sleepstage, so any module can use it."""
from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Callable


def write_atomic(path, write: Callable[[BinaryIO], object]) -> None:
    """Call `write` on `<path>.tmp` opened for binary writing, then replace
    `path` with it in one rename, so `path` holds either its old bytes or
    all the new ones. If anything fails, the temp file is removed."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

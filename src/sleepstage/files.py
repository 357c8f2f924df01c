"""Atomic file writes, shared by the cache, `checkpoint`, the training log
and the CLI; imports nothing of sleepstage, so any module can use it. Text
goes out as UTF-8 with its newlines as given."""
from __future__ import annotations

import codecs
import csv
import os
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Sequence


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


def write_text_atomic(path, text: str) -> None:
    write_atomic(path, lambda fh: fh.write(text.encode("utf-8")))


def write_csv_atomic(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """`header`, then each row, as csv.writer formats them (lines end in
    CRLF); the rows are written as they come, not gathered first."""
    def write(fh) -> None:
        out = csv.writer(codecs.getwriter("utf-8")(fh))
        out.writerow(header)
        out.writerows(rows)
    write_atomic(path, write)
